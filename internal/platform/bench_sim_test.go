package platform_test

import (
	"testing"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/resources"
)

// Simulation-core benchmarks: Server.Tick's steady-state cost and allocation
// proof, under the steady test policy and under CoCG. Populations are rebuilt
// with the timer stopped whenever a session completes, so no iteration ticks a
// thinned server (that would silently deflate the per-tick work).

// buildSteadyCluster populates nServers servers with perServer Contra
// sessions each, under flat steady controllers whose requests cover the
// spec's worst-case demand.
func buildSteadyCluster(nServers, perServer int) *platform.Cluster {
	c := platform.NewCluster(nServers, &steadyTestPolicy{})
	spec := gamesim.Contra()
	req := spec.WorstCaseDemand()
	seed := int64(1)
	for _, srv := range c.Servers {
		for j := 0; j < perServer; j++ {
			sess, err := gamesim.NewSession(spec, j%len(spec.Scripts), seed)
			if err != nil {
				panic(err)
			}
			srv.Add(spec, sess, &flatSteadyCtl{req: req})
			seed++
		}
	}
	return c
}

// TestServerTickZeroAllocs is the acceptance gate for the scratch-backed tick
// loop: once warm, Server.Tick must not allocate at all — on the fused pass
// (the steady requests cover every demand) and on the general path alike.
func TestServerTickZeroAllocs(t *testing.T) {
	for _, general := range []bool{false, true} {
		c := buildSteadyCluster(1, 2)
		srv, pol := c.Servers[0], c.Policy
		if general {
			srv.ForceGeneralTick()
		}
		for i := 0; i < 10; i++ {
			srv.Tick(pol)
		}
		if avg := testing.AllocsPerRun(200, func() { srv.Tick(pol) }); avg != 0 {
			t.Errorf("general=%v: Server.Tick allocates %v allocs/op in steady state; want 0", general, avg)
		}
		seconds, uncontended := srv.TickCounts()
		want := seconds
		if general {
			want = 0
		}
		if uncontended != want {
			t.Errorf("general=%v: %d of %d seconds took the fused pass, want %d", general, uncontended, seconds, want)
		}
	}
}

// BenchmarkServerTickSteady is the per-tick micro view of the scratch-backed
// server loop (two hosted sessions, no completions inside the run).
func BenchmarkServerTickSteady(b *testing.B) {
	b.ReportAllocs()
	c := buildSteadyCluster(1, 2)
	srv, pol := c.Servers[0], c.Policy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv.NumHosted() < 2 {
			b.StopTimer()
			c = buildSteadyCluster(1, 2)
			srv = c.Servers[0]
			b.StartTimer()
		}
		srv.Tick(pol)
	}
}

// benchCoCGTick measures Server.Tick on a warm six-session server under the
// CoCG policy (predictor-backed controllers, loading-steal regulator). The
// same six sessions run at both capacities: four servers' worth, where
// capacity never binds and only the seconds a predictor under-requested take
// the general path, and one server's worth, where nearly all do. A server that
// loses a session is rebuilt and re-warmed off the clock.
func benchCoCGTick(b *testing.B, capacity resources.Vector) {
	b.ReportAllocs()
	games := gamesim.AllGames()
	var hosts []host
	for i := 0; i < 6; i++ {
		g := games[i%len(games)]
		hosts = append(hosts, host{spec: g, script: len(g.Scripts) - 1, seed: int64(200 + i)})
	}
	var srv *platform.Server
	var pol platform.Policy
	// Tick counts of the timed seconds only: [sec0, unc0] is the server's
	// reading after its warm-up.
	var seconds, uncontended, sec0, unc0 uint64
	settle := func() {
		if srv != nil {
			s, u := srv.TickCounts()
			seconds, uncontended = seconds+s-sec0, uncontended+u-unc0
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if srv == nil || srv.NumHosted() < len(hosts) {
			b.StopTimer()
			settle()
			p := newTickPair(b, core.PolicyCoCG, capacity, hosts...)
			srv, pol = p.srv[0], p.pol[0]
			for w := 0; w < 30; w++ {
				srv.Tick(pol)
			}
			sec0, unc0 = srv.TickCounts()
			b.StartTimer()
		}
		srv.Tick(pol)
	}
	b.StopTimer()
	settle()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hosts)), "ns/sess-sec")
	b.ReportMetric(100*float64(uncontended)/float64(seconds), "%uncontended")
}

func BenchmarkServerTickCoCGUncontended(b *testing.B) { benchCoCGTick(b, resources.Uniform(400)) }
func BenchmarkServerTickCoCGContended(b *testing.B)   { benchCoCGTick(b, resources.FullServer) }
