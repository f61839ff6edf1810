package cocg_test

// A long-run soak: a saturated mixed stream over an 8-server cluster for two
// virtual hours under every policy, asserting the platform's global
// invariants hold throughout. Skipped with -short.

import (
	"testing"

	"cocg"
	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

func TestSoakMixedClusterInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{
		Players: 8, SessionsPerPlayer: 3, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range core.AllPolicies() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c := sys.NewCluster(8, kind)
			c.StarveLimit = 5 * simclock.Minute
			gen := sys.Generator(13)
			stream := workload.NewMixStream(gen, gamesim.AllGames(), 0.08, 17)
			horizon := 2 * simclock.Hour
			// Run the stream in 97-second legs, checking capacity after each.
			for now := simclock.Seconds(0); now < horizon; now = c.Clock.Now() {
				leg := min(97, horizon-now)
				if err := c.RunEvented(leg, stream.Schedule(now, leg)); err != nil {
					t.Fatal(err)
				}
				for _, srv := range c.Servers {
					u := srv.Utilization()
					for d := range u {
						if u[d] > srv.Capacity[d]+1e-6 {
							t.Fatalf("t=%d server %d over capacity: %v", c.Clock.Now(), srv.ID, u)
						}
					}
				}
			}
			recs := c.Records()
			if len(recs) < 20 {
				t.Fatalf("only %d sessions completed in two hours", len(recs))
			}
			for _, r := range recs {
				if r.Elapsed <= 0 || r.FPSRatio < 0 || r.FPSRatio > 1.001 {
					t.Fatalf("malformed record: %+v", r)
				}
			}
			sum := platform.Summarize(recs)
			if kind == core.PolicyCoCG && sum.MeanGoodFPS < 0.95 {
				t.Errorf("CoCG good-FPS fraction %.3f under saturation", sum.MeanGoodFPS)
			}
			t.Logf("%s: %d sessions, throughput %.0f, %s",
				kind, len(recs), cocg.Throughput(recs, nil), sum)
		})
	}
}
