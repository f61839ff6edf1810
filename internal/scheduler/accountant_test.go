package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

// requireBitIdentical fails unless two summaries agree exactly — float
// fields compared by bits, not tolerance. This is the summary's core
// guarantee: memoized per-server contributions folded in server order
// reproduce a full recompute to the last bit, no matter which servers
// changed.
func requireBitIdentical(t *testing.T, label string, got, want platform.FleetLoad) {
	t.Helper()
	if math.Float64bits(got.MeanHeadroom) != math.Float64bits(want.MeanHeadroom) {
		t.Fatalf("%s: mean headroom bits diverged: %x (%.17g) vs %x (%.17g)",
			label, math.Float64bits(got.MeanHeadroom), got.MeanHeadroom,
			math.Float64bits(want.MeanHeadroom), want.MeanHeadroom)
	}
	if len(got.Games) != len(want.Games) || len(got.GameDemand) != len(want.GameDemand) {
		t.Fatalf("%s: game breakdown shape diverged:\n got %+v\nwant %+v", label, got, want)
	}
	for i := range got.Games {
		if got.Games[i] != want.Games[i] {
			t.Fatalf("%s: game order diverged: %v vs %v", label, got.Games, want.Games)
		}
		if math.Float64bits(got.GameDemand[i]) != math.Float64bits(want.GameDemand[i]) {
			t.Fatalf("%s: demand[%s] bits diverged: %.17g vs %.17g",
				label, got.Games[i], got.GameDemand[i], want.GameDemand[i])
		}
	}
}

// TestFleetLoadMatchesFullRecompute is the equivalence gate: it drives one
// cluster through admission, forecast progression, session endings, and membership churn (grow, shrink, replace), polling the
// incremental summary at every checkpoint. Each poll must be bit-identical to
// a from-scratch recompute through throwaway caches (so the incremental chain
// under test is never reset).
func TestFleetLoadMatchesFullRecompute(t *testing.T) {
	specs := []*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact()}
	p := policyFor(t, specs...)
	c := platform.NewCluster(6, p)

	var out, full platform.FleetLoad
	checkpoint := func(label string) {
		t.Helper()
		p.FleetLoadInto(c.Servers, &out)
		p.FleetLoadFull(c.Servers, &full)
		requireBitIdentical(t, label, out, full)
		// The full scan divides every frame of every timeline and shares
		// only the server order with the memoized fold: same bits.
		if head := p.ClusterLoadFullScan(c.Servers); head != out.MeanHeadroom {
			t.Fatalf("%s: memoized mean %.17g vs full scan %.17g", label, out.MeanHeadroom, head)
		}
	}
	tick := func(n int) {
		for i := 0; i < n; i++ {
			c.Tick()
		}
	}

	checkpoint("empty")

	for i := 0; i < 8; i++ {
		c.Submit(platform.Arrival{Spec: specs[i%2], Script: 0, Habit: int64(100 + i), SessionSeed: int64(100 + i)})
	}
	tick(5)
	checkpoint("admitted")
	tick(30)
	checkpoint("forecasts advanced")

	tick(400)
	checkpoint("sessions ended")

	c.Servers = append(c.Servers, platform.NewServer(100, resources.FullServer, c.Clock))
	checkpoint("grew")
	tick(10)
	checkpoint("ticked after growth")

	c.Servers = c.Servers[:5]
	checkpoint("shrank")

	c.Servers[0] = platform.NewServer(101, resources.FullServer, c.Clock)
	checkpoint("replaced")
	tick(10)
	checkpoint("ticked after replace")
}

// TestClusterLoadDelegatesToAccountant pins that the scalar the coordinator
// routes on is exactly the full scan's mean headroom, also on a poll that
// answers from the memos (the second, over an unchanged fleet). The fleet is
// 24 servers with one to three sessions of three games each: enough distinct
// headrooms that a sum in any order but server order lands on different
// last bits.
func TestClusterLoadDelegatesToAccountant(t *testing.T) {
	specs := []*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact(), gamesim.DevilMayCry()}
	p := policyFor(t, specs...)
	c := platform.NewCluster(24, p)
	for i, srv := range c.Servers {
		for k := 0; k <= i%3; k++ {
			spec, id := specs[(i+k)%3], int64(i*10+k)
			sess, err := gamesim.NewSession(spec, 0, id)
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := p.NewController(spec, id)
			if err != nil {
				t.Fatal(err)
			}
			srv.Add(spec, sess, ctl)
		}
		c.Tick()
	}
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	head := p.ClusterLoadFullScan(c.Servers)
	var fl platform.FleetLoad
	for poll := 0; poll < 2; poll++ {
		p.FleetLoadInto(c.Servers, &fl)
		if math.Float64bits(head) != math.Float64bits(fl.MeanHeadroom) {
			t.Fatalf("poll %d: full scan %.17g != summary mean %.17g", poll, head, fl.MeanHeadroom)
		}
	}
}

// TestFleetLoadSteadyStateAllocationFree is the poll-path allocation gate:
// once warm, a summary over an unchanged fleet performs zero heap
// allocations — the revision probes, the caches the servers carry and the
// reused output buffer all live in pre-grown storage.
func TestFleetLoadSteadyStateAllocationFree(t *testing.T) {
	spec := gamesim.GenshinImpact()
	p := policyFor(t, spec)
	c := platform.NewCluster(64, p)
	for i := 0; i < len(c.Servers); i += 4 {
		for k := 0; k < 2; k++ {
			c.Submit(platform.Arrival{Spec: spec, Script: 0, Habit: int64(i*10 + k), SessionSeed: int64(i*10 + k)})
		}
	}
	for i := 0; i < 30; i++ {
		c.Tick()
	}
	var out platform.FleetLoad
	p.FleetLoadInto(c.Servers, &out) // warm caches, memos, output buffer
	p.FleetLoadInto(c.Servers, &out)

	if allocs := testing.AllocsPerRun(100, func() {
		p.FleetLoadInto(c.Servers, &out)
	}); allocs != 0 {
		t.Errorf("steady-state FleetLoadInto allocates %.1f objects per poll, want 0", allocs)
	}
	// The poll a busy fleet actually pays for: every stamp moved since the
	// last one, so every cache and every memo refills.
	if allocs := testing.AllocsPerRun(100, func() {
		for _, srv := range c.Servers {
			srv.PolicyState.(*serverCache).stamp = platform.Stamp{}
		}
		p.FleetLoadInto(c.Servers, &out)
	}); allocs != 0 {
		t.Errorf("refilling FleetLoadInto allocates %.1f objects per poll, want 0", allocs)
	}
}

// TestFleetLoadGameDemandAttribution sanity-checks the per-game breakdown:
// an idle fleet predicts zero demand, hosting sessions of one game raises
// that game's demand and no other's.
func TestFleetLoadGameDemandAttribution(t *testing.T) {
	contra, genshin := gamesim.Contra(), gamesim.GenshinImpact()
	p := policyFor(t, contra, genshin)
	c := platform.NewCluster(4, p)

	var fl platform.FleetLoad
	p.FleetLoadInto(c.Servers, &fl)
	if len(fl.Games) != 2 || fl.Games[0] != "Contra" || fl.Games[1] != "Genshin Impact" {
		t.Fatalf("games list %v, want sorted trained names", fl.Games)
	}
	for i, d := range fl.GameDemand {
		if d != 0 {
			t.Fatalf("idle fleet predicts demand %v for %s", d, fl.Games[i])
		}
	}

	gi := -1
	for i, g := range fl.Games {
		if g == genshin.Name {
			gi = i
		}
	}
	for i := 0; i < 3; i++ {
		c.Submit(platform.Arrival{Spec: genshin, Script: 0, Habit: int64(50 + i), SessionSeed: int64(50 + i)})
	}
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	p.FleetLoadInto(c.Servers, &fl)
	if fl.GameDemand[gi] <= 0 {
		t.Errorf("hosted Genshin sessions predict demand %v, want > 0", fl.GameDemand[gi])
	}
	if fl.GameDemand[1-gi] != 0 {
		t.Errorf("unhosted game shows demand %v", fl.GameDemand[1-gi])
	}
}

// TestFracSumMatchesPerFrameFold bounds fracSum's one multiply per run against
// the frame-by-frame fold it replaced: on random forecasts of 120 frames split
// into random runs, the two agree to a relative 1e-12.
func TestFracSumMatchesPerFrameFold(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 2000; trial++ {
		var runs []predictor.Segment
		for left := 120; left > 0; {
			n := 1 + rng.Intn(left)
			var d resources.Vector
			for k := range d {
				d[k] = 150 * rng.Float64()
			}
			runs = append(runs, predictor.Segment{Frames: n, Demand: d})
			left -= n
		}
		var want float64
		for _, r := range runs {
			w := perDimensionWorstFrac(r.Demand, resources.FullServer)
			for n := 0; n < r.Frames; n++ {
				want += w
			}
		}
		got := fracSum(runs, resources.FullServer[0])
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Fatalf("trial %d: fracSum %.17g, per-frame fold %.17g (relative error %.3g over %d runs)",
				trial, got, want, rel, len(runs))
		}
	}
}

// perDimensionWorstFrac is worstFrac's reference: one division per dimension
// with a positive capacity, the largest quotient above zero kept.
func perDimensionWorstFrac(v, capacity resources.Vector) float64 {
	worst := 0.0
	for d := range v {
		if capd := capacity[d]; capd > 0 {
			if f := v[d] / capd; f > worst {
				worst = f
			}
		}
	}
	return worst
}

// FuzzWorstFracOneDivision holds worstFrac's one division of the largest
// component to the per-dimension reference, bit for bit, under the same
// positive capacity in every dimension: NaN, signed zeros, negatives,
// subnormals and infinities among the components.
func FuzzWorstFracOneDivision(f *testing.F) {
	f.Add(12.5, 99.9, 0.0, 100.0, 100.0)
	f.Add(math.NaN(), math.Copysign(0, -1), -3.0, 5e-324, 100.0)
	f.Add(math.Inf(1), 1e308, 1e-310, 7.0, 0.5)
	f.Add(-1.0, math.NaN(), math.Copysign(0, -1), 0.0, 1e-300)
	f.Add(3.0, math.Nextafter(3, 4), 3.0, math.Nextafter(3, 2), 3.0)
	f.Add(1e-320, 2e-320, 0.0, 0.0, 1e300)
	f.Fuzz(func(t *testing.T, a, b, c, d, capacity float64) {
		if !(capacity > 0) {
			t.Skip()
		}
		v := resources.Vector{a, b, c, d}
		got, want := worstFrac(v.Load(), capacity), perDimensionWorstFrac(v, resources.Uniform(capacity))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("worstFrac(%v, %v) = %x (%.17g), per-dimension %x (%.17g)",
				v, capacity, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	})
}
