package coordinator

import (
	"testing"

	"cocg/internal/gamesim"
)

// fleetViews fabricates the frozen snapshot a routing decision consumes for
// an n-region fleet: the headrooms are what 256-server clusters at staggered
// load report through their summary feeds.
func fleetViews(n int) []ClusterView {
	views := make([]ClusterView, n)
	for i := range views {
		views[i] = ClusterView{
			ID:           i,
			Healthy:      true,
			LatencyMS:    float64(5 + 37*i%140),
			Headroom:     float64((i*13)%97) / 100,
			LiveSessions: 256 * 3 * (i % 4),
		}
	}
	return views
}

// benchFleetRoute measures one full routing decision — score every cluster,
// produce the deterministic preference order — against an n-region fleet.
// ns/op is the per-session routing latency the coordinator adds before the
// first dial; the custom metric is the decision throughput a single
// goroutine sustains.
func benchFleetRoute(b *testing.B, n int) {
	views := fleetViews(n)
	spec := gamesim.GenshinImpact()
	var order []int
	var scores []float64
	RankInto(views, spec, RouteWeights{}, 1, &order, &scores) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankInto(views, spec, RouteWeights{}, 1, &order, &scores)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}

func BenchmarkFleetRoute4(b *testing.B)  { benchFleetRoute(b, 4) }
func BenchmarkFleetRoute64(b *testing.B) { benchFleetRoute(b, 64) }
