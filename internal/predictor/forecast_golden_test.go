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

// forecastGolden pins the per-frame demand forecast bit for bit. Each digest
// covers one game: every script is played as a live session (seed
// 1000+script, the predictor's allocation granted every second) and, after
// every completed detection frame, the demand timeline at every golden
// horizon is hashed as little-endian float64 bits. The digests were taken
// from a tree whose demand and allocation timelines both still matched the
// dense per-frame generator's digests from before the run-length generator
// replaced it.
var forecastGolden = map[string]string{
	"DOTA2":          "34e13888b95baa00bc32177ab9f907841e5c68a15b3a0c0fb427dda04985dd00",
	"CSGO":           "a44da699980956715edd5ac9847354efbc7bbe606157b709119d7115825eb164",
	"Genshin Impact": "ef43184b2ac30788c4987bc35948027e4e8e1cf342d7a2e9ae85e475dfc90281",
	"Devil May Cry":  "786e8b5e1ce4162261ab744c96f006afc3919698656415315d380a0527652002",
	"Contra":         "1b6de7a341c8f98700333123f0e58881ad9c1bf048e4112f7b9305fad364792b",
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
// (3) the runs to stay equal over every second that completes no detection
// frame.
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
			prev := pr.AppendForecastRuns(nil, 120, &scratch)
			for i := 0; i < 4*3600 && !sess.Done(); i++ {
				_, ok := pr.Observe(sess.Demand())
				sess.Step(pr.Alloc())
				// Every second: runs move only when a detection frame completes.
				runs = pr.AppendForecastRuns(runs[:0], 120, &scratch)
				if !ok && !slices.Equal(runs, prev) {
					t.Fatalf("%s script %d t=%d: runs changed with no detection frame completed", spec.Name, script, i)
				}
				prev = append(prev[:0], runs...)
				if !ok {
					continue
				}
				frames++
				for _, n := range goldenHorizons {
					dense := pr.ForecastDemandInto(n, nil, &ForecastScratch{})
					hashCurve(h, dense)

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
						t.Fatalf("%s script %d t=%d horizon %d: expanded runs differ from ForecastDemandInto", spec.Name, script, i, n)
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
