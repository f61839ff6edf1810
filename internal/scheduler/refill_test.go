package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// perDimensionVerdict is overlaySat's reference: the dense walk, one division
// per overloaded dimension per frame.
func perDimensionVerdict(total []resources.Vector, cand []resources.Vector, candPeak, limit resources.Vector, window int, satFloor float64) (float64, bool) {
	var satSum float64
	for t := 0; t < window; t++ {
		add := candPeak
		if t < len(cand) {
			add = cand[t]
		}
		sat := 1.0
		for d := range limit {
			if sum := total[t][d] + add[d]; sum > limit[d] && sum > 0 {
				if s := limit[d] / sum; s < sat {
					sat = s
				}
			}
		}
		if sat < satFloor {
			return 0, false
		}
		satSum += sat
	}
	return satSum, true
}

// checkOverlay runs overlaySat, the one-division verdict, against the dense
// per-dimension reference with the same limit in every dimension: bit-equal
// sums, equal verdicts.
func checkOverlay(t *testing.T, runs []predictor.Segment, cand []resources.Vector, candPeak resources.Vector, limit float64, window int, satFloor float64) {
	t.Helper()
	var dense []resources.Vector
	for _, r := range runs {
		for n := r.Frames; n > 0; n-- {
			dense = append(dense, r.Demand)
		}
	}
	want, wok := perDimensionVerdict(dense, cand, candPeak, resources.Uniform(limit), window, satFloor)
	got, gok := overlaySat(runs, cand, &candPeak, limit, window, satFloor)
	if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("limit %v, window %d, floor %v: (%x %.17g, %v), dense per-dimension walk (%x %.17g, %v)",
			limit, window, satFloor, math.Float64bits(got), got, gok, math.Float64bits(want), want, wok)
	}
}

// randomOverlay draws a hosted timeline, a candidate curve and a floor whose
// sums sit around the limit: below, exactly on it, one ulp either side, and
// well above, per dimension and frame.
func randomOverlay(rng *rand.Rand, limit float64, h int) (runs []predictor.Segment, cand []resources.Vector, candPeak resources.Vector, floor float64) {
	near := func(l float64) float64 {
		switch rng.Intn(6) {
		case 0:
			return l
		case 1:
			return math.Nextafter(l, math.Inf(1))
		case 2:
			return math.Nextafter(l, math.Inf(-1))
		case 3:
			return l * (1 + rng.Float64())
		default:
			return l * rng.Float64()
		}
	}
	for left := h; left > 0; {
		n := 1 + rng.Intn(left)
		if rng.Intn(3) > 0 {
			n = 1 + rng.Intn(min(left, 4))
		}
		var d resources.Vector
		for k := range d {
			d[k] = near(limit) * rng.Float64()
		}
		runs = append(runs, predictor.Segment{Frames: n, Demand: d})
		left -= n
	}
	cand = make([]resources.Vector, rng.Intn(h+h/2+1))
	t := 0
	for _, r := range runs {
		for n := 0; n < r.Frames; n, t = n+1, t+1 {
			if t >= len(cand) {
				break
			}
			for k := range cand[t] {
				// Aim the sum, not the addend: hosted + add lands near the limit.
				cand[t][k] = near(limit) - r.Demand[k]
				if cand[t][k] < 0 {
					cand[t][k] = 0
				}
			}
		}
	}
	for k := range candPeak {
		candPeak[k] = 40 * rng.Float64()
	}
	floor = []float64{0, 0.3, 0.5, 0.9, 1}[rng.Intn(5)]
	return runs, cand, candPeak, floor
}

// TestVerdictUniformMatchesPerDimension pins the one-division verdict: with
// the same positive limit in every dimension it returns the per-dimension
// walk's bits — sums on the limit, an ulp above and below it, far above.
func TestVerdictUniformMatchesPerDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, limit := range []float64{95, 100, 0.125, 1e-300} {
		for trial := 0; trial < 400; trial++ {
			h := 1 + rng.Intn(120)
			runs, cand, candPeak, floor := randomOverlay(rng, limit, h)
			checkOverlay(t, runs, cand, candPeak, limit, 1+rng.Intn(h), floor)
		}
	}
	// Every dimension exactly on the limit, then each one ulp over in turn.
	for d := -1; d < int(resources.NumDims); d++ {
		hosted := resources.Uniform(60)
		add := resources.Uniform(35)
		if d >= 0 {
			add[d] = math.Nextafter(35, 36)
		}
		checkOverlay(t, []predictor.Segment{{Frames: 3, Demand: hosted}}, []resources.Vector{add, add}, add, 95, 3, 0)
	}
}

func FuzzVerdictUniform(f *testing.F) {
	f.Add(int64(1), 95.0, uint8(120))
	f.Add(int64(2), 0.5, uint8(1))
	f.Add(int64(3), 4.0, uint8(17))
	f.Add(int64(4), 1e-300, uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, limit float64, horizon uint8) {
		// cacheOf admits only servers whose limit is positive and finite.
		if !(limit > 0) || math.IsInf(limit, 1) {
			t.Skip()
		}
		h := 1 + int(horizon)%120
		rng := rand.New(rand.NewSource(seed))
		runs, cand, candPeak, floor := randomOverlay(rng, limit, h)
		checkOverlay(t, runs, cand, candPeak, limit, 1+rng.Intn(h), floor)
	})
}

// TestLoadMemoColdPath drives a policy that places for fifty frames unpolled,
// then polls it every frame. Every refill takes the fleet-load contributions
// off the runs it has just forecast, so every summary — the first, off caches
// no poll has read, and each after a frame — must equal a from-scratch one
// bitwise, and neither a warm poll nor one that refills every server may
// allocate.
func TestLoadMemoColdPath(t *testing.T) {
	specs := []*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact(), gamesim.DOTA2()}
	p := policyFor(t, specs...)
	c := platform.NewCluster(8, p)
	c.StarveLimit = 2 * simclock.Minute
	next := int64(0)
	frame := func() {
		t.Helper()
		var sched []platform.Arrival
		if next%3 != 2 {
			spec := specs[next%3]
			sched = append(sched, platform.Arrival{Spec: spec, Script: int(next) % len(spec.Scripts), Habit: next, SessionSeed: 700 + next, Submitted: c.Clock.Now() + 1})
		}
		next++
		if err := c.RunEvented(simclock.FrameLen, sched); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		frame()
	}
	if c.Placements == 0 {
		t.Fatal("nothing was placed; the scenario proves nothing")
	}
	var got, want platform.FleetLoad
	for i := 0; i < 20; i++ {
		p.FleetLoadInto(c.Servers, &got)
		p.FleetLoadFull(c.Servers, &want)
		requireBitIdentical(t, "poll", got, want)
		frame()
	}
	p.FleetLoadInto(c.Servers, &got)
	if allocs := testing.AllocsPerRun(100, func() { p.FleetLoadInto(c.Servers, &got) }); allocs != 0 {
		t.Errorf("warm FleetLoadInto allocates %.1f objects per poll, want 0", allocs)
	}
	// Every stamp moved since the last poll, so each poll refills every
	// server once.
	if allocs := testing.AllocsPerRun(100, func() {
		for _, srv := range c.Servers {
			srv.PolicyState.(*serverCache).stamp = platform.Stamp{}
		}
		p.FleetLoadInto(c.Servers, &got)
	}); allocs != 0 {
		t.Errorf("cold FleetLoadInto allocates %.1f objects per poll, want 0", allocs)
	}
	p.FleetLoadFull(c.Servers, &want)
	requireBitIdentical(t, "after the allocation runs", got, want)
}
