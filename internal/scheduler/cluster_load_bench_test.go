package scheduler

import (
	"fmt"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
)

// buildLoadedCluster populates every 4th server of an n-server cluster with
// two live sessions and lets their controllers tick so the demand forecasts
// are realistic — the shared fixture for every cluster-summary benchmark.
func buildLoadedCluster(b *testing.B, n int) (*CoCG, *platform.Cluster) {
	b.Helper()
	spec := gamesim.GenshinImpact()
	p := policyFor(b, spec)
	c := platform.NewCluster(n, p)
	for i := 0; i < len(c.Servers); i += 4 {
		for k := int64(0); k < 2; k++ {
			id := int64(i)*10 + k
			sess, err := gamesim.NewSession(spec, 2, id)
			if err != nil {
				b.Fatal(err)
			}
			ctl, err := p.NewController(spec, id)
			if err != nil {
				b.Fatal(err)
			}
			c.Servers[i].Add(spec, sess, ctl)
		}
	}
	for j := 0; j < 30; j++ {
		c.Tick()
	}
	return p, c
}

// BenchmarkClusterLoadFullScan is the reference scan: the full horizon×dims
// headroom rescan over every server, at 256/1024/4096 servers — what a poll
// would cost without the per-server load memo.
func BenchmarkClusterLoadFullScan(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			p, c := buildLoadedCluster(b, n)
			p.ClusterLoadFullScan(c.Servers) // warm the forecast caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ClusterLoadFullScan(c.Servers)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "summaries/s")
		})
	}
}

// BenchmarkFleetLoadSteady is the nothing-changed poll at 256/1024/4096
// servers: one stamp comparison and one memo fold per server. Must stay at
// 0 allocs/op (the equivalence and allocation gates in accountant_test.go
// enforce the semantics; this records the speed).
func BenchmarkFleetLoadSteady(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			p, c := buildLoadedCluster(b, n)
			var out platform.FleetLoad
			p.FleetLoadInto(c.Servers, &out) // warm caches and memos
			p.FleetLoadInto(c.Servers, &out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.FleetLoadInto(c.Servers, &out)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "summaries/s")
		})
	}
}

// BenchmarkFleetLoadChurn polls after one simulated second advances the
// cluster (forecast revisions move on detection-frame boundaries, dirtying
// the loaded quarter of the fleet), so the measured cost is the O(dirty)
// cache and memo refills plus the fold. The tick itself runs outside the
// timer.
func BenchmarkFleetLoadChurn(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			p, c := buildLoadedCluster(b, n)
			var out platform.FleetLoad
			p.FleetLoadInto(c.Servers, &out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.Tick()
				b.StartTimer()
				p.FleetLoadInto(c.Servers, &out)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "summaries/s")
		})
	}
}
