package scheduler

import (
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/workload"
)

var bundleCache = map[string]*predictor.Trained{}

func bundleFor(t testing.TB, spec *gamesim.GameSpec) *predictor.Trained {
	t.Helper()
	if b, ok := bundleCache[spec.Name]; ok {
		return b
	}
	b, err := predictor.TrainForGame(spec, predictor.TrainConfig{Players: 8, SessionsPerPlayer: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	bundleCache[spec.Name] = b
	return b
}

func policyFor(t testing.TB, specs ...*gamesim.GameSpec) *CoCG {
	t.Helper()
	var bundles []*predictor.Trained
	for _, s := range specs {
		bundles = append(bundles, bundleFor(t, s))
	}
	return New(bundles, Config{})
}

// admits reports whether the policy would place the game on the server.
func admits(p *CoCG, srv *platform.Server, spec *gamesim.GameSpec) bool {
	_, ok := p.Score(srv, spec)
	return ok
}

// aside runs f with every server's PolicyState set aside and puts it back
// afterwards: a reference or observing policy that scores the servers inside f
// works through throwaway caches, so the long-lived cache under test is never
// displaced.
func aside(servers []*platform.Server, f func()) {
	kept := make([]any, len(servers))
	for i, srv := range servers {
		kept[i], srv.PolicyState = srv.PolicyState, nil
	}
	f()
	for i, srv := range servers {
		srv.PolicyState = kept[i]
	}
}

func TestPolicyName(t *testing.T) {
	p := policyFor(t, gamesim.Contra())
	if p.Name() != "CoCG" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestAdmitUnknownGame(t *testing.T) {
	p := policyFor(t, gamesim.Contra())
	c := platform.NewCluster(1, p)
	if admits(p, c.Servers[0], gamesim.CSGO()) {
		t.Error("admitted a game with no trained bundle")
	}
	if _, err := p.NewController(gamesim.CSGO(), 1); err == nil {
		t.Error("controller for unknown game did not error")
	}
}

func TestAdmitEmptyServer(t *testing.T) {
	p := policyFor(t, gamesim.Contra(), gamesim.DevilMayCry())
	c := platform.NewCluster(1, p)
	for _, g := range []*gamesim.GameSpec{gamesim.Contra(), gamesim.DevilMayCry()} {
		if !admits(p, c.Servers[0], g) {
			t.Errorf("empty server rejected %s", g.Name)
		}
	}
}

func TestAdmitRejectsOverload(t *testing.T) {
	// Two Devil May Cry boss-heavy sessions cannot share a server with a
	// third: peak stages approach 90 % GPU alone.
	spec := gamesim.DevilMayCry()
	p := policyFor(t, spec)
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]
	placed := 0
	for i := int64(0); i < 4; i++ {
		if !admits(p, srv, spec) {
			break
		}
		sess, err := gamesim.NewSession(spec, 2, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := p.NewController(spec, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		srv.Add(spec, sess, ctl)
		// Let controllers tick a few frames so requests are realistic.
		for j := 0; j < 30; j++ {
			c.Tick()
		}
		placed++
	}
	if placed >= 4 {
		t.Errorf("distributor admitted %d heavy games on one server", placed)
	}
	if placed == 0 {
		t.Error("distributor admitted nothing")
	}
}

func TestCoLocationKeepsQoS(t *testing.T) {
	// The headline behavior (Fig. 9): Genshin Impact + DOTA2 on one server,
	// utilization stays below the cap and sessions keep good FPS.
	ga, do := gamesim.GenshinImpact(), gamesim.DOTA2()
	p := policyFor(t, ga, do)
	c := platform.NewCluster(1, p)
	gen := workload.NewGenerator(map[string][]int64{
		ga.Name: bundleFor(t, ga).Habits(),
		do.Name: bundleFor(t, do).Habits(),
	}, 7)
	stream := &workload.PairStream{Gen: gen, A: ga, B: do}
	for i := 0; i < 3600; i++ {
		stream.Feed(c)
		c.Tick()
	}
	recs := c.Records()
	if len(recs) < 3 {
		t.Fatalf("only %d sessions completed in an hour", len(recs))
	}
	sum := platform.Summarize(recs)
	if sum.MeanFPSRatio < 0.9 {
		t.Errorf("mean FPS ratio %.3f", sum.MeanFPSRatio)
	}
	if sum.MeanDegraded > 0.05 {
		t.Errorf("mean degraded %.3f exceeds the 5%% operator tolerance", sum.MeanDegraded)
	}
	// At least once the two games must actually have been co-located.
	if c.Servers[0].PeakUtilization().Dominant() < 60 {
		t.Errorf("peak utilization %.1f suggests no co-location happened",
			c.Servers[0].PeakUtilization().Dominant())
	}
}

func TestRegulatorStealsFromLoading(t *testing.T) {
	spec := gamesim.DevilMayCry()
	p := policyFor(t, spec)
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]

	// Hand-craft a contended situation: one exec-heavy controller and one
	// loading controller, with requests summing over the limit.
	mk := func(loading bool, req resources.Vector) *platform.Hosted {
		sess, err := gamesim.NewSession(spec, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Add(spec, sess, &stubController{loading: loading})
		h.Request = req
		return h
	}
	exec := mk(false, resources.Uniform(70))
	load := mk(true, resources.Uniform(50))
	srv.SyncTotals() // requests were set directly, not by a tick

	p.Regulate(srv)
	if exec.Request != resources.Uniform(70) {
		t.Errorf("regulator touched the executing game: %v", exec.Request)
	}
	if load.Request[resources.CPU] >= 50 {
		t.Errorf("regulator did not throttle the loading game: %v", load.Request)
	}
	// The loading floor must hold.
	if load.Request[resources.CPU] < 50*0.35-1e-9 {
		t.Errorf("regulator cut below the floor: %v", load.Request)
	}
}

func TestRegulatorNoopUnderLimit(t *testing.T) {
	spec := gamesim.Contra()
	p := policyFor(t, spec)
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]
	sess, _ := gamesim.NewSession(spec, 0, 1)
	h := srv.Add(spec, sess, &stubController{loading: true})
	h.Request = resources.Uniform(20)
	srv.SyncTotals()
	p.Regulate(srv)
	if h.Request != resources.Uniform(20) {
		t.Errorf("regulator acted below the limit: %v", h.Request)
	}
}

func TestRegulatorDisabledByConfig(t *testing.T) {
	spec := gamesim.Contra()
	b := bundleFor(t, spec)
	p := New([]*predictor.Trained{b}, Config{DisableLoadingSteal: true})
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]
	sess, _ := gamesim.NewSession(spec, 0, 1)
	h := srv.Add(spec, sess, &stubController{loading: true})
	h.Request = resources.Uniform(90)
	sess2, _ := gamesim.NewSession(spec, 0, 2)
	h2 := srv.Add(spec, sess2, &stubController{loading: false})
	h2.Request = resources.Uniform(90)
	p.Regulate(srv)
	if h.Request != resources.Uniform(90) {
		t.Error("disabled regulator still acted")
	}
}

// stubController reports a fixed loading state; requests are set directly on
// the Hosted.
type stubController struct{ loading bool }

func (s *stubController) Name() string                           { return "stub" }
func (s *stubController) Tick(resources.Vector) resources.Vector { return resources.Zero }
func (s *stubController) Loading() bool                          { return s.loading }

func TestPeakDepthGuard(t *testing.T) {
	// Two frame-locked heavy games (Genshin + DMC) must refuse to share a
	// server — their combined worst case breaks the 30 FPS floor — while
	// DOTA2 + DMC (one uncapped, moderate peak) is admissible.
	ga, dmc, do := gamesim.GenshinImpact(), gamesim.DevilMayCry(), gamesim.DOTA2()
	p := policyFor(t, ga, dmc, do)
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]

	sess, err := gamesim.NewSession(dmc, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := p.NewController(dmc, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(dmc, sess, ctl)
	for i := 0; i < 30; i++ {
		c.Tick()
	}

	if admits(p, srv, ga) {
		t.Error("Genshin admitted next to Devil May Cry (peak sum breaks the FPS floor)")
	}
	if !admits(p, srv, do) {
		t.Error("DOTA2 refused next to Devil May Cry (the paper's featured pair)")
	}
}

func TestScorePrefersAdmissibleServers(t *testing.T) {
	spec := gamesim.Contra()
	p := policyFor(t, spec)
	c := platform.NewCluster(2, p)
	// Score must be ok on an empty server and carry a consolidation bias.
	s0, ok0 := p.Score(c.Servers[0], spec)
	if !ok0 {
		t.Fatal("empty server not scorable")
	}
	sess, _ := gamesim.NewSession(spec, 0, 5)
	ctl, _ := p.NewController(spec, 5)
	c.Servers[1].Add(spec, sess, ctl)
	for i := 0; i < 30; i++ {
		c.Tick()
	}
	s1, ok1 := p.Score(c.Servers[1], spec)
	if !ok1 {
		t.Fatal("busy-but-light server not scorable")
	}
	if s1 <= s0-0.01 {
		t.Errorf("busy server score %.4f not close to empty %.4f despite consolidation bias", s1, s0)
	}
}

// TestCachedEvaluateMatchesFreshRecompute runs a live CoCG cluster — admits,
// departures, and a predictor stage transition every frame — and repeatedly
// compares the long-lived policy's cached evaluation against a fresh policy
// instance scoring through throwaway caches over the very same servers and
// controllers. The verdicts, scores, and cached aggregate timelines must agree
// bit for bit, which is the cache-invalidation contract: the stamp catches
// every mutation a forecast can depend on. A second policy instance that never
// created a controller scores the same servers and must agree too — the
// stamp lives on the server, not in the placing policy's cache.
// Every hosted controller was minted by p, so the observer and the fresh
// policy both resolve them by name (gameOf's other-instance fallback) while p
// takes the index they carry.
func TestCachedEvaluateMatchesFreshRecompute(t *testing.T) {
	do, co := gamesim.DOTA2(), gamesim.Contra()
	bundles := []*predictor.Trained{bundleFor(t, do), bundleFor(t, co)}
	p := New(bundles, Config{})
	observer := New(bundles, Config{})
	c := platform.NewCluster(3, p)
	specs := []*gamesim.GameSpec{do, co}

	next := 0
	for tick := 0; tick < 2400; tick++ {
		if tick%40 == 0 {
			spec := specs[next%len(specs)]
			c.Submit(platform.Arrival{
				Spec:        spec,
				Script:      next % len(spec.Scripts),
				Habit:       int64(next),
				SessionSeed: int64(500 + next),
			})
			next++
		}
		c.Tick()
		if tick%100 != 99 {
			continue
		}
		ref := New(bundles, Config{})
		for _, srv := range c.Servers {
			var rp *serverCache
			for _, spec := range specs {
				gs, gok := p.Score(srv, spec)
				var ws, os float64
				var wok, ook bool
				aside(c.Servers, func() {
					ws, wok = ref.Score(srv, spec)
					rp = srv.PolicyState.(*serverCache)
					os, ook = observer.Score(srv, spec)
				})
				if gok != wok || gs != ws {
					t.Fatalf("tick %d server %d %s: cached (%v, %v) != fresh (%v, %v)",
						tick, srv.ID, spec.Name, gs, gok, ws, wok)
				}
				if ook != wok || os != ws {
					t.Fatalf("tick %d server %d %s: observing policy (%v, %v) != fresh (%v, %v)",
						tick, srv.ID, spec.Name, os, ook, ws, wok)
				}
			}
			cp, _ := srv.PolicyState.(*serverCache)
			if cp == nil || rp == nil || cp.stamp != stampOf(srv) || rp.stamp != cp.stamp {
				t.Fatalf("tick %d server %d: missing or stale cache after scoring", tick, srv.ID)
			}
			if len(cp.total) != len(rp.total) || cp.peak != rp.peak {
				t.Fatalf("tick %d server %d: %d runs peaking at %v != %d at %v", tick, srv.ID, len(cp.total), cp.peak, len(rp.total), rp.peak)
			}
			for ti := range cp.total {
				if cp.total[ti] != rp.total[ti] {
					t.Fatalf("tick %d server %d run %d: cached timeline %v != fresh %v",
						tick, srv.ID, ti, cp.total[ti], rp.total[ti])
				}
			}
		}
	}
	if c.Placements == 0 {
		t.Error("stream placed nothing; the comparison proved nothing")
	}
	if len(c.Records()) == 0 {
		t.Error("no session departed; the membership-revision stamp went unexercised")
	}
}

// rampController is a foreign controller whose request moves every tick —
// the state a refill reads off hosted.Request for sessions it cannot forecast.
type rampController struct {
	stubController
	n int
}

func (r *rampController) Tick(resources.Vector) resources.Vector {
	r.n++
	return resources.Uniform(float64(r.n%4) * 5)
}

// TestCacheRefillsExactlyWhenStampMoves is the O(1)-staleness contract: a
// server's forecast cache refills exactly when the server's (Rev, ticks)
// moved since the cache last filled — whether sessions arrived through the
// cluster queue or a bare Server.Add, and with a foreign controller hosted —
// and what it serves always equals a fresh refill. The
// caches under test are the test's own, so the cluster's placement never
// refreshes them behind its back.
func TestCacheRefillsExactlyWhenStampMoves(t *testing.T) {
	do, co := gamesim.DOTA2(), gamesim.Contra()
	p := policyFor(t, do, co)
	c := platform.NewCluster(3, p)

	type raw struct{ rev, ticks uint64 }
	rawOf := func(srv *platform.Server) raw {
		ticks, _ := srv.TickCounts()
		return raw{srv.Rev(), ticks}
	}
	caches := make([]*serverCache, len(c.Servers))
	last := make([]raw, len(c.Servers))
	for i := range caches {
		caches[i] = &serverCache{owner: p}
	}
	// refills refreshes server i's cache and reports whether it refilled: a
	// refill always rewrites the peak, which is never negative.
	poison := resources.Uniform(-1)
	refills := func(i int) bool {
		t.Helper()
		srv, cc := c.Servers[i], caches[i]
		kept := cc.peak
		cc.peak = poison
		p.refresh(cc, srv, &p.scratch)
		refilled := cc.peak != poison
		if !refilled {
			cc.peak = kept
		}
		fresh := &serverCache{owner: p}
		p.refresh(fresh, srv, &p.scratch)
		if len(cc.total) != len(fresh.total) || cc.peak != fresh.peak || cc.sumPeaks != fresh.sumPeaks || cc.hostedFloor != fresh.hostedFloor {
			t.Fatalf("server %d: cache serves %d runs peaking at %v, a fresh refill %d at %v", i, len(cc.total), cc.peak, len(fresh.total), fresh.peak)
		}
		for k := range cc.total {
			if cc.total[k] != fresh.total[k] {
				t.Fatalf("server %d run %d: cached %v != fresh %v", i, k, cc.total[k], fresh.total[k])
			}
		}
		return refilled
	}
	filled := 0
	check := func(label string) {
		t.Helper()
		for i, srv := range c.Servers {
			now := rawOf(srv)
			moved := !caches[i].filled || now != last[i]
			if got := refills(i); got != moved {
				t.Fatalf("%s: server %d refilled=%v, stamp moved=%v (%+v -> %+v)", label, i, got, moved, last[i], now)
			} else if got {
				filled++
			}
			last[i] = now
		}
	}

	// Every server is a never-ticked idle one, whose stamp is a new cache's
	// zero stamp: each cache must still fill itself.
	check("fresh caches")
	for i, cc := range caches {
		if cc.memo == nil || rawOf(c.Servers[i]) != (raw{}) {
			t.Fatalf("server %d: fresh cache on a never-ticked idle server did not fill", i)
		}
	}
	if !admits(p, c.Servers[0], co) {
		t.Fatal("never-ticked idle server rejected a game")
	}

	// Arrivals fill through the queue; server 1 also takes direct Adds, one
	// of them a controller the policy does not know.
	for i := 0; i < 3; i++ {
		c.Submit(platform.Arrival{Spec: co, Script: i % len(co.Scripts), Habit: int64(i), SessionSeed: int64(40 + i)})
	}
	direct := c.Servers[1]
	sess, err := gamesim.NewSession(do, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := p.NewController(do, 7)
	if err != nil {
		t.Fatal(err)
	}
	direct.Add(do, sess, ctl)
	foreign, err := gamesim.NewSession(do, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	direct.Add(do, foreign, &rampController{})

	foreignTicks := 0
	for tick := 0; tick < 1500; tick++ {
		c.Tick()
		check("after a tick")
		before := filled
		check("within the second")
		if filled != before {
			t.Fatalf("tick %d: a cache refilled within one second", tick)
		}
		for _, h := range direct.Hosted {
			if _, ok := h.Controller.(*rampController); ok {
				foreignTicks++
			}
		}
		switch tick {
		case 60:
			direct.SyncTotals()
			if !refills(1) {
				t.Fatal("SyncTotals left the cache valid")
			}
			last[1] = rawOf(direct)
		}
	}
	if c.Placements != 3 || len(c.Records()) == 0 || foreignTicks < 200 {
		t.Fatalf("scenario proved nothing: %d placements, %d departures, %d seconds hosting the foreign controller",
			c.Placements, len(c.Records()), foreignTicks)
	}
}

// evalFixture builds a warm one-server CoCG cluster hosting two games, so
// evaluate's steady state — valid stamps, no refill — can be measured.
func evalFixture(tb testing.TB) (*CoCG, *platform.Server, *gamesim.GameSpec) {
	ga, do := gamesim.GenshinImpact(), gamesim.DOTA2()
	p := policyFor(tb, ga, do)
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]
	for i, spec := range []*gamesim.GameSpec{ga, do} {
		sess, err := gamesim.NewSession(spec, 0, int64(9+i))
		if err != nil {
			tb.Fatal(err)
		}
		ctl, err := p.NewController(spec, int64(i+1))
		if err != nil {
			tb.Fatal(err)
		}
		srv.Add(spec, sess, ctl)
	}
	for i := 0; i < 31; i++ {
		c.Tick()
	}
	return p, srv, do
}

func TestEvaluateSteadyStateAllocationFree(t *testing.T) {
	p, srv, spec := evalFixture(t)
	p.Score(srv, spec) // fill the cache and memo
	if n := testing.AllocsPerRun(200, func() { p.Score(srv, spec) }); n != 0 {
		t.Errorf("memoized steady-state Score allocates %.1f/op, want 0", n)
	}
	cc, _ := srv.PolicyState.(*serverCache)
	if cc == nil || !cc.filled {
		t.Fatal("fixture server's cache unexpectedly empty")
	}
	if n := testing.AllocsPerRun(200, func() {
		clear(cc.memo)
		p.Score(srv, spec)
	}); n != 0 {
		t.Errorf("warm unmemoized Score allocates %.1f/op, want 0", n)
	}
	// The refill — every frame's first evaluation in a busy fleet.
	if n := testing.AllocsPerRun(200, func() {
		cc.stamp = stamp{}
		p.Score(srv, spec)
	}); n != 0 {
		t.Errorf("refilling Score allocates %.1f/op, want 0", n)
	}
}

func BenchmarkEvaluateSteadyState(b *testing.B) {
	p, srv, spec := evalFixture(b)
	p.Score(srv, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Score(srv, spec)
	}
}

func BenchmarkEvaluateWarmUnmemoized(b *testing.B) {
	p, srv, spec := evalFixture(b)
	p.Score(srv, spec)
	cc := srv.PolicyState.(*serverCache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(cc.memo)
		p.Score(srv, spec)
	}
}
