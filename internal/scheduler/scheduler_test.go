package scheduler

import (
	"math"
	"slices"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/simclock"
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
// afterwards: the policy scoring the servers inside f works through throwaway
// caches, so the long-lived cache under test is never displaced.
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

// TestCacheOfRefusesNonUniformCapacity pins the one capacity shape CoCG
// judges: the same figure in every dimension, above the safety margin.
// Scoring any other server panics on first sight instead of holding it to a
// limit it does not have.
func TestCacheOfRefusesNonUniformCapacity(t *testing.T) {
	spec := gamesim.Contra()
	p := policyFor(t, spec)
	clock := &simclock.Clock{}
	scores := func(capacity resources.Vector) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		p.Score(platform.NewServer(0, capacity, clock), spec)
		return false
	}
	for _, capacity := range []resources.Vector{
		{100, 100, 100, 90}, {100, 100, math.Nextafter(100, 0), 100},
		resources.Uniform(safetyMargin), resources.Uniform(1), resources.Uniform(0),
		resources.Uniform(-100), resources.Uniform(math.NaN()),
	} {
		if !scores(capacity) {
			t.Errorf("capacity %v: CoCG scored the server, want a panic", capacity)
		}
	}
	for _, capacity := range []resources.Vector{resources.FullServer, resources.Uniform(math.Nextafter(safetyMargin, 6))} {
		if scores(capacity) {
			t.Errorf("capacity %v: CoCG refused the server", capacity)
		}
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
	c.StarveLimit = 0 // every rejected arrival keeps retrying
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
// compares the long-lived policy's cached evaluation against the same policy
// scoring through throwaway caches over the very same servers and
// controllers. The verdicts and scores must agree bit for bit, and so must
// the cached aggregates: the membership ones after every Score, the forecast
// ones whenever the cache is stamped current. That is the cache-invalidation
// contract: the stamp catches every mutation a forecast can depend on, and
// the membership guards run first, so a Score they reject leaves the
// forecast cache as it was while a Score past them refreshes it.
func TestCachedEvaluateMatchesFreshRecompute(t *testing.T) {
	do, co := gamesim.DOTA2(), gamesim.Contra()
	p := policyFor(t, do, co)
	c := platform.NewCluster(3, p)
	c.StarveLimit = 0 // every rejected arrival keeps retrying
	specs := []*gamesim.GameSpec{do, co}

	next, guarded, passed := 0, 0, 0
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
		for _, srv := range c.Servers {
			for _, spec := range specs {
				var before platform.Stamp
				if cp, _ := srv.PolicyState.(*serverCache); cp != nil {
					before = cp.stamp
				}
				gs, gok := p.Score(srv, spec)
				var ws float64
				var wok, pass bool
				var rp *serverCache
				aside(c.Servers, func() {
					ws, wok = p.Score(srv, spec)
					rp = srv.PolicyState.(*serverCache)
					_, pass = guard(rp, srv, &p.game[p.gameIdx[spec.Name]])
				})
				if gok != wok || gs != ws {
					t.Fatalf("tick %d server %d %s: cached (%v, %v) != fresh (%v, %v)",
						tick, srv.ID, spec.Name, gs, gok, ws, wok)
				}
				cp := srv.PolicyState.(*serverCache)
				if cp.hostedFloor != rp.hostedFloor || !slices.Equal(cp.hostedPeaks, rp.hostedPeaks) {
					t.Fatalf("tick %d server %d: cached membership (%v, %v) != fresh (%v, %v)",
						tick, srv.ID, cp.hostedFloor, cp.hostedPeaks, rp.hostedFloor, rp.hostedPeaks)
				}
				if pass {
					passed++
					if cp.stamp != srv.Stamp() {
						t.Fatalf("tick %d server %d %s: a Score past the guards left the forecast cache stale", tick, srv.ID, spec.Name)
					}
				} else {
					guarded++
					if cp.stamp != before {
						t.Fatalf("tick %d server %d %s: a guard-rejected Score refilled the forecast cache", tick, srv.ID, spec.Name)
					}
				}
			}
			cp := srv.PolicyState.(*serverCache)
			if cp.stamp != srv.Stamp() {
				continue
			}
			fresh := p.newCache()
			p.refresh(fresh, srv)
			if len(cp.total) != len(fresh.total) || cp.peak != fresh.peak {
				t.Fatalf("tick %d server %d: %d runs peaking at %v != %d at %v", tick, srv.ID, len(cp.total), cp.peak, len(fresh.total), fresh.peak)
			}
			for ti := range cp.total {
				if cp.total[ti] != fresh.total[ti] {
					t.Fatalf("tick %d server %d run %d: cached timeline %v != fresh %v",
						tick, srv.ID, ti, cp.total[ti], fresh.total[ti])
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
	if guarded == 0 || passed == 0 {
		t.Errorf("%d guard-rejected and %d passing Scores: both orders must be exercised", guarded, passed)
	}
}

// TestCacheRefillsExactlyWhenStampMoves is the O(1)-staleness contract: a
// server's forecast cache refills exactly when the server's Stamp moved
// since the cache last filled — whether sessions arrived through the
// cluster queue or a bare Server.Add — and what it serves always equals a
// fresh refill. The
// caches under test are the test's own, so the cluster's placement never
// refreshes them behind its back.
func TestCacheRefillsExactlyWhenStampMoves(t *testing.T) {
	do, co := gamesim.DOTA2(), gamesim.Contra()
	p := policyFor(t, do, co)
	c := platform.NewCluster(3, p)

	caches := make([]*serverCache, len(c.Servers))
	// last starts at the zero Stamp, which matches no server.
	last := make([]platform.Stamp, len(c.Servers))
	for i := range caches {
		caches[i] = p.newCache()
	}
	// refills refreshes server i's cache and reports whether it refilled: a
	// refill always rewrites the peak, which is never negative.
	poison := resources.V4{C0: -1, C1: -1, C2: -1, C3: -1}
	refills := func(i int) bool {
		t.Helper()
		srv, cc := c.Servers[i], caches[i]
		kept := cc.peak
		cc.peak = poison
		p.refresh(cc, srv)
		refilled := cc.peak != poison
		if !refilled {
			cc.peak = kept
		}
		fresh := p.newCache()
		p.refresh(fresh, srv)
		if len(cc.total) != len(fresh.total) || cc.peak != fresh.peak {
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
			now := srv.Stamp()
			moved := now != last[i]
			if got := refills(i); got != moved {
				t.Fatalf("%s: server %d refilled=%v, stamp moved=%v (%+v -> %+v)", label, i, got, moved, last[i], now)
			} else if got {
				filled++
			}
			last[i] = now
		}
	}

	// Every server is a never-ticked idle one, whose stamp numbers are a new
	// cache's zero stamp's: each cache must still fill itself.
	check("fresh caches")
	for i, cc := range caches {
		if st := c.Servers[i].Stamp(); cc.stamp != st || st.Rev != 0 || st.Ticks != 0 {
			t.Fatalf("server %d: fresh cache on a never-ticked idle server did not fill", i)
		}
	}
	if !admits(p, c.Servers[0], co) {
		t.Fatal("never-ticked idle server rejected a game")
	}

	// Arrivals fill through the queue; server 1 also takes a direct Add.
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

	for tick := 0; tick < 1500; tick++ {
		c.Tick()
		check("after a tick")
		before := filled
		check("within the second")
		if filled != before {
			t.Fatalf("tick %d: a cache refilled within one second", tick)
		}
		switch tick {
		case 60:
			direct.SyncTotals()
			if !refills(1) {
				t.Fatal("SyncTotals left the cache valid")
			}
			last[1] = direct.Stamp()
		}
	}
	if c.Placements != 3 || len(c.Records()) == 0 {
		t.Fatalf("scenario proved nothing: %d placements, %d departures", c.Placements, len(c.Records()))
	}
}

// evalFixture builds a warm one-server CoCG cluster hosting Genshin Impact
// and DOTA2, so evaluate's steady state — valid stamps, no refill — can be
// measured. It returns a candidate that passes the membership guards there
// (Contra), so scoring it reads the forecast, and one they reject (a second
// DOTA2: the three peaks together break the FPS floor).
func evalFixture(tb testing.TB) (p *CoCG, srv *platform.Server, pass, reject *gamesim.GameSpec) {
	ga, do, co := gamesim.GenshinImpact(), gamesim.DOTA2(), gamesim.Contra()
	p = policyFor(tb, ga, do, co)
	c := platform.NewCluster(1, p)
	srv = c.Servers[0]
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
	return p, srv, co, do
}

func TestEvaluateSteadyStateAllocationFree(t *testing.T) {
	p, srv, spec, reject := evalFixture(t)
	p.Score(srv, spec) // fill the cache
	cc, _ := srv.PolicyState.(*serverCache)
	if cc == nil || cc.stamp != srv.Stamp() {
		t.Fatal("a Score past the guards left the fixture server's cache unfilled")
	}
	if n := testing.AllocsPerRun(200, func() { p.Score(srv, spec) }); n != 0 {
		t.Errorf("steady-state Score allocates %.1f/op, want 0", n)
	}
	// The refill — every frame's first evaluation past the guards in a busy
	// fleet.
	if n := testing.AllocsPerRun(200, func() {
		cc.stamp = platform.Stamp{}
		p.Score(srv, spec)
	}); n != 0 {
		t.Errorf("refilling Score allocates %.1f/op, want 0", n)
	}
	// A Score the guards reject, with the membership aggregates retaken each
	// time: it allocates nothing and never touches the forecast.
	if _, ok := guard(cc, srv, &p.game[p.gameIdx[reject.Name]]); ok {
		t.Fatalf("the fixture's %s passes the guards; the rejected path goes unmeasured", reject.Name)
	}
	if n := testing.AllocsPerRun(200, func() {
		cc.stamp, cc.members = platform.Stamp{}, platform.Stamp{}
		p.Score(srv, reject)
	}); n != 0 {
		t.Errorf("guard-rejected Score allocates %.1f/op, want 0", n)
	}
	if cc.stamp != (platform.Stamp{}) {
		t.Error("a guard-rejected Score refilled the forecast cache")
	}
}

func BenchmarkEvaluateSteadyState(b *testing.B) {
	p, srv, spec, _ := evalFixture(b)
	p.Score(srv, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Score(srv, spec)
	}
}
