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

// TestMembershipRetakenExactlyOnRev is the membership key's contract: a
// cache's guard aggregates are retaken exactly when the server or its Rev
// moved since they were taken — after an admission through the queue, a
// bare Server.Add, a sweep or a SyncTotals — never after a tick alone, and
// for a server replaced at the same index even when the stamp numbers are
// equal. What the cache holds always equals a fresh retake. The caches under
// test are the test's own, so placement never retakes them behind its back.
func TestMembershipRetakenExactlyOnRev(t *testing.T) {
	do, co := gamesim.DOTA2(), gamesim.Contra()
	p := policyFor(t, do, co)
	c := platform.NewCluster(3, p)

	n := len(c.Servers)
	caches := make([]*serverCache, n)
	for i := range caches {
		caches[i] = p.newCache()
	}
	// What each cache was last retaken under; a nil server matches none.
	lastSrv := make([]*platform.Server, n)
	lastRev := make([]uint64, n)
	// retakes brings server i's cache up to date and reports whether the
	// aggregates were retaken: a retake always rewrites the floor, which is
	// never negative.
	retakes := func(i int) bool {
		t.Helper()
		srv, cc := c.Servers[i], caches[i]
		kept := cc.hostedFloor
		cc.hostedFloor = -1
		p.retakeMembers(cc, srv, srv.Stamp())
		retook := cc.hostedFloor != -1
		if !retook {
			cc.hostedFloor = kept
		}
		fresh := p.newCache()
		p.retakeMembers(fresh, srv, srv.Stamp())
		if cc.hostedFloor != fresh.hostedFloor || !slices.Equal(cc.hostedPeaks, fresh.hostedPeaks) {
			t.Fatalf("server %d: cache holds floor %v and peaks %v, a fresh retake %v and %v",
				i, cc.hostedFloor, cc.hostedPeaks, fresh.hostedFloor, fresh.hostedPeaks)
		}
		return retook
	}
	retaken, tickOnly := 0, 0
	check := func(label string) {
		t.Helper()
		for i, srv := range c.Servers {
			st := srv.Stamp()
			moved := srv != lastSrv[i] || st.Rev != lastRev[i]
			if got := retakes(i); got != moved {
				t.Fatalf("%s: server %d retaken=%v, server or Rev moved=%v (Rev %d -> %d)", label, i, got, moved, lastRev[i], st.Rev)
			} else if got {
				retaken++
			}
			lastSrv[i], lastRev[i] = srv, st.Rev
		}
	}
	ticks := func(i int) uint64 { s, _ := c.Servers[i].TickCounts(); return s }

	check("fresh caches")
	// A never-used server replaced at its index by another at the same
	// stamp numbers (Rev 0, no ticks).
	c.Servers[2] = platform.NewServer(2, resources.FullServer, c.Clock)
	before := retaken
	check("server replaced")
	if retaken != before+1 {
		t.Fatalf("replacing server 2 retook %d caches, want 1", retaken-before)
	}

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
	check("after a bare Add")

	for tick := 0; tick < 1500; tick++ {
		revs := make([]uint64, n)
		tickCounts := make([]uint64, n)
		for i, srv := range c.Servers {
			revs[i], tickCounts[i] = srv.Stamp().Rev, ticks(i)
		}
		c.Tick()
		for i, srv := range c.Servers {
			if srv.Stamp().Rev == revs[i] && ticks(i) != tickCounts[i] {
				tickOnly++
			}
		}
		check("after a tick")
		switch tick {
		case 60:
			direct.SyncTotals()
			if !retakes(1) {
				t.Fatal("SyncTotals left the membership aggregates valid")
			}
			lastRev[1] = direct.Stamp().Rev
		}
	}
	if c.Placements != 3 || len(c.Records()) == 0 || tickOnly == 0 {
		t.Fatalf("scenario proved nothing: %d placements, %d departures, %d ticks with membership unmoved", c.Placements, len(c.Records()), tickOnly)
	}

	// A hosting server replaced by an empty one brought to the same Rev.
	old := c.Servers[1]
	repl := platform.NewServer(1, resources.FullServer, c.Clock)
	for repl.Stamp().Rev < old.Stamp().Rev {
		repl.SyncTotals()
	}
	c.Servers[1] = repl
	before = retaken
	check("hosting server replaced at equal Rev")
	if retaken != before+1 {
		t.Fatalf("replacing server 1 at equal Rev retook %d caches, want 1", retaken-before)
	}
}

// refreshFirstScore is the reference TestScoreMatchesRefreshFirst holds
// Score to: Algorithm 1 in its original order, the server's forecast
// refreshed (into a throwaway cache) before any guard is read, and the
// guards' floor and peaks taken straight off srv.Hosted.
func refreshFirstScore(p *CoCG, srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	gi, ok := p.gameIdx[spec.Name]
	if !ok {
		return 0, false
	}
	cc := p.newCache()
	p.refresh(cc, srv)
	g := &p.game[gi]
	satFloor := g.floor
	for _, h := range srv.Hosted {
		satFloor = math.Max(satFloor, p.game[h.Controller.(*Controller).gi].floor)
	}
	if satFloor > 1 {
		return 0, false
	}
	peakSum := g.peak
	for _, h := range srv.Hosted {
		peakSum = peakSum.Add(p.game[h.Controller.(*Controller).gi].peak)
	}
	if !peakSum.Fits(srv.Capacity.Scale(2 - satFloor)) {
		return 0, false
	}
	cand := g.b.TypicalCurve
	limit := srv.Capacity[0] - safetyMargin
	window := horizonFrames
	if len(cand) > 0 && len(cand) < window {
		window = len(cand)
	}
	satSum, ok := overlaySat(cc.total, cand, &g.peak, limit, window, satFloor)
	if !ok {
		return 0, false
	}
	meanSat := satSum / float64(window)
	if meanSat < minMeanSat {
		return 0, false
	}
	return meanSat + 0.001*float64(srv.NumHosted()), true
}

// refreshFirst checks every Score the cluster asks of the policy against
// refreshFirstScore.
type refreshFirst struct {
	*CoCG
	t *testing.T
	// Scores asked, Scores the guards rejected, Scores that admitted.
	calls, guarded, admitted int
}

func (r *refreshFirst) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	r.t.Helper()
	got, gok := r.CoCG.Score(srv, spec)
	want, wok := refreshFirstScore(r.CoCG, srv, spec)
	if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
		r.t.Fatalf("server %d %s: Score (%v, %v), refresh-first reference (%v, %v)", srv.ID, spec.Name, got, gok, want, wok)
	}
	r.calls++
	members := r.newCache()
	r.retakeMembers(members, srv, srv.Stamp())
	if _, pass := guard(members, srv, &r.game[r.gameIdx[spec.Name]]); !pass {
		r.guarded++
	}
	if gok {
		r.admitted++
	}
	return got, gok
}

// TestScoreMatchesRefreshFirst runs rack-shaped clusters — 32 servers, the
// five games mixed at the rack's arrival rate — on seeds 1 to 3 and checks
// every Score placement asks for, guard-rejected or not, against the
// original refresh-then-guard order: verdicts and scores bit-equal.
func TestScoreMatchesRefreshFirst(t *testing.T) {
	games := gamesim.AllGames()
	var bundles []*predictor.Trained
	habits := map[string][]int64{}
	for _, g := range games {
		b := bundleFor(t, g)
		bundles = append(bundles, b)
		habits[g.Name] = b.Habits()
	}
	horizon := 3 * simclock.Hour
	if testing.Short() {
		horizon = 30 * simclock.Minute
	}
	for seed := int64(1); seed <= 3; seed++ {
		ref := &refreshFirst{CoCG: New(bundles, Config{}), t: t}
		c := platform.NewCluster(32, ref)
		sched := workload.NewMixStream(workload.NewGenerator(habits, seed+7), games, 0.075, seed+11).Schedule(0, horizon)
		if err := c.RunEvented(horizon, sched); err != nil {
			t.Fatal(err)
		}
		if ref.guarded == 0 || ref.calls-ref.guarded == ref.admitted || ref.admitted == 0 || len(c.Records()) == 0 {
			t.Fatalf("seed %d proved little: %d Scores, %d guard-rejected, %d admitting, %d departures",
				seed, ref.calls, ref.guarded, ref.admitted, len(c.Records()))
		}
		t.Logf("seed %d: %d Scores, %d guard-rejected, %d admitting", seed, ref.calls, ref.guarded, ref.admitted)
	}
}
