package gamesim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cocg/internal/resources"
)

// sessionGolden holds, per game, the sha-256 of every realized plan and the
// first 200 full-supply demand vectors over script × 8 (habit, session) seed
// pairs. The digests were taken from the parent of the change that stopped
// seeding the habit RNG for categories that never draw from it, so they pin
// what that change must not move: the habit and session streams, hence every
// plan and every demand.
var sessionGolden = map[string]string{
	"DOTA2":          "3024ad4f2fe465ee41cc30125dbf3698b2a5326802f1f61a2944f430872c2d6b",
	"CSGO":           "2b8984a683c7f9585918430e4e30bf4debdee4ce912e8a3f53b95a9d171655b8",
	"Genshin Impact": "2814c6ddd9a4a9bdc8b09fd4f9e3d8e817f20467c74cf6278e49c46db73d52d7",
	"Devil May Cry":  "cddde7068491b34233e568d7a7f11c06ee0010a4ccd2f834dfa07dc38dbd79ef",
	"Contra":         "6f0f07f4b461145efa032e20ccf91789aa18f500525fd1f5ff5df9d3fc8050a3",
}

func TestSessionGolden(t *testing.T) {
	for _, spec := range AllGames() {
		h := sha256.New()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for script := range spec.Scripts {
			for seed := int64(1); seed <= 8; seed++ {
				s, err := NewPlayerSession(spec, script, seed*11, seed)
				if err != nil {
					t.Fatal(err)
				}
				plan := s.PlanTypes()
				put(uint64(len(plan)))
				for _, st := range plan {
					put(uint64(st))
				}
				for i := 0; i < 200; i++ {
					for _, v := range s.Demand().Vector() {
						put(math.Float64bits(v))
					}
					s.Step(resources.FullServer.Load())
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != sessionGolden[spec.Name] {
			t.Errorf("%s: session digest = %s, want %s", spec.Name, got, sessionGolden[spec.Name])
		}
	}
}
