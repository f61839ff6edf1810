package predictor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// goldenHorizons are the forecast lengths the golden digests cover: a single
// frame, one that ends inside the first run, the distributor's default, and
// one longer than any caller uses.
var goldenHorizons = []int{1, 7, 120, 240}

// forecastGolden pins ForecastDemand and ForecastCurve bit for bit. Each
// digest covers one game: every script is played as a live session (seed
// 1000+script, the predictor's allocation granted every second) and, after
// every completed detection frame, both timelines at every golden horizon are
// hashed as little-endian float64 bits. The digests were taken from the dense
// per-frame generator before the run-length generator replaced it.
var forecastGolden = map[string]string{
	"DOTA2":          "098c45381ff140cd57d5958693d12ac9480e9f7bafcdd29ff378fcf0a988144d",
	"CSGO":           "09622e758b236ccb1c1478d401f54cb177670b2c222e00074cebacdaae605f88",
	"Genshin Impact": "92f2d095e008803fb7906a678ab05419ebf3c3e9f815ac8a12861028a6cdf24d",
	"Devil May Cry":  "2f5f6b756e989097c8fbf9334c36a0d0dd91436238fe49f17a42894a4318fff2",
	"Contra":         "db16e15e1c40826372229ab2e41a41a524a491da678f88650134030328d29ff9",
}

func hashCurve(h hash.Hash, curve []resources.Vector) {
	var b [8]byte
	for _, v := range curve {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
}

// TestForecastGolden replays the recorded sessions and requires (1) the dense
// timelines to hash to the checked-in digests, (2) the run-length generator's
// expansion to be that timeline, with run lengths summing to the horizon, and
// (3) two calls at one ForecastRev to return equal runs.
func TestForecastGolden(t *testing.T) {
	for _, spec := range gamesim.AllGames() {
		tr := trainedFor(t, spec)
		h := sha256.New()
		frames := 0
		for script := range spec.Scripts {
			sess, err := gamesim.NewSession(spec, script, int64(1000+script))
			if err != nil {
				t.Fatal(err)
			}
			pr, err := tr.NewSessionPredictor(Config{})
			if err != nil {
				t.Fatal(err)
			}
			var scratch ForecastScratch
			var runs []Segment
			prev, prevRev := pr.AppendForecastRuns(nil, 120, &scratch), pr.ForecastRev()
			for i := 0; i < 4*3600 && !sess.Done(); i++ {
				_, ok := pr.Observe(sess.Demand())
				sess.Step(pr.Alloc())
				// Every second: runs are a pure function of ForecastRev.
				runs = pr.AppendForecastRuns(runs[:0], 120, &scratch)
				if rev := pr.ForecastRev(); rev != prevRev {
					prevRev = rev
				} else if !slices.Equal(runs, prev) {
					t.Fatalf("%s script %d t=%d: runs changed with ForecastRev unchanged at %d", spec.Name, script, i, rev)
				}
				prev = append(prev[:0], runs...)
				if !ok {
					continue
				}
				frames++
				for _, n := range goldenHorizons {
					dense := pr.ForecastDemand(n)
					hashCurve(h, dense)
					hashCurve(h, pr.ForecastCurve(n))

					runs = pr.AppendForecastRuns(runs[:0], n, &scratch)
					total := 0
					for _, r := range runs {
						if r.Frames <= 0 {
							t.Fatalf("%s script %d t=%d horizon %d: run of %d frames", spec.Name, script, i, n, r.Frames)
						}
						total += r.Frames
					}
					if total != n {
						t.Fatalf("%s script %d t=%d: run lengths sum to %d, want horizon %d", spec.Name, script, i, total, n)
					}
					if !slices.Equal(expandRuns(nil, runs), dense) {
						t.Fatalf("%s script %d t=%d horizon %d: expanded runs differ from ForecastDemand", spec.Name, script, i, n)
					}
				}
			}
		}
		if frames == 0 {
			t.Fatalf("%s: no detection frame completed", spec.Name)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != forecastGolden[spec.Name] {
			t.Errorf("%s: forecast digest over %d frames = %s, want %s", spec.Name, frames, got, forecastGolden[spec.Name])
		}
	}
}
