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

// checkOverlay runs overlaySat the way verdict does — the one-division path
// exactly when uniformLimit allows it — and, when it does, the per-dimension
// path too, against the dense reference: bit-equal sums, equal verdicts.
func checkOverlay(t *testing.T, runs []predictor.Segment, cand []resources.Vector, candPeak, limit resources.Vector, window int, satFloor float64) {
	t.Helper()
	var dense []resources.Vector
	for _, r := range runs {
		for n := r.Frames; n > 0; n-- {
			dense = append(dense, r.Demand)
		}
	}
	want, wok := perDimensionVerdict(dense, cand, candPeak, limit, window, satFloor)
	uniform := uniformLimit(limit)
	modes := []bool{uniform}
	if uniform {
		modes = append(modes, false)
	}
	for _, mode := range modes {
		got, gok := overlaySat(runs, cand, &candPeak, limit, window, satFloor, mode)
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("limit %v, window %d, floor %v, one-division %v: (%x %.17g, %v), dense per-dimension walk (%x %.17g, %v)",
				limit, window, satFloor, mode, math.Float64bits(got), got, gok, math.Float64bits(want), want, wok)
		}
	}
}

// randomOverlay draws a hosted timeline, a candidate curve and a floor whose
// sums sit around the limit: below, exactly on it, one ulp either side, and
// well above, per dimension and frame.
func randomOverlay(rng *rand.Rand, limit resources.Vector, h int) (runs []predictor.Segment, cand []resources.Vector, candPeak resources.Vector, floor float64) {
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
			d[k] = near(math.Abs(limit[k])) * rng.Float64()
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
				cand[t][k] = near(math.Abs(limit[k])) - r.Demand[k]
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
// equal positive limits it returns the per-dimension walk's bits — sums on
// the limit, an ulp above and below it, far above — and limits that are
// unequal, zero or negative fall back to the per-dimension loop.
func TestVerdictUniformMatchesPerDimension(t *testing.T) {
	for _, l := range []resources.Vector{resources.Uniform(95), {95, 95, 95, 94.99999}, resources.Uniform(0), resources.Uniform(-5), {95, 0, 95, 95}, {1e-300, 1e-300, 1e-300, 1e-300}} {
		want := l[0] > 0 && l[1] == l[0] && l[2] == l[0] && l[3] == l[0]
		if uniformLimit(l) != want {
			t.Errorf("uniformLimit(%v) = %v, want %v", l, !want, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	limits := []resources.Vector{
		resources.Uniform(95), resources.Uniform(100), resources.Uniform(0.125), resources.Uniform(1e-300),
		{95, 90, 95, 95}, resources.Uniform(0), resources.Uniform(-5), {95, -1, 0, 95},
	}
	for _, limit := range limits {
		for trial := 0; trial < 400; trial++ {
			h := 1 + rng.Intn(120)
			runs, cand, candPeak, floor := randomOverlay(rng, limit, h)
			checkOverlay(t, runs, cand, candPeak, limit, 1+rng.Intn(h), floor)
		}
	}
	// Every dimension exactly on the limit, then each one ulp over in turn.
	on := resources.Uniform(95)
	for d := -1; d < int(resources.NumDims); d++ {
		hosted := resources.Uniform(60)
		add := resources.Uniform(35)
		if d >= 0 {
			add[d] = math.Nextafter(35, 36)
		}
		checkOverlay(t, []predictor.Segment{{Frames: 3, Demand: hosted}}, []resources.Vector{add, add}, add, on, 3, 0)
	}
}

func FuzzVerdictUniform(f *testing.F) {
	f.Add(int64(1), 95.0, uint8(120))
	f.Add(int64(2), 0.0, uint8(1))
	f.Add(int64(3), -4.0, uint8(17))
	f.Add(int64(4), 1e-300, uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, l float64, horizon uint8) {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Skip()
		}
		h := 1 + int(horizon)%120
		rng := rand.New(rand.NewSource(seed))
		limit := resources.Uniform(l)
		if seed%5 == 0 {
			limit[rng.Intn(4)] = l / 2
		}
		runs, cand, candPeak, floor := randomOverlay(rng, limit, h)
		checkOverlay(t, runs, cand, candPeak, limit, 1+rng.Intn(h), floor)
	})
}

// TestLoadMemoColdPath covers both ways the fleet-load memo is produced. A
// policy that places for fifty frames and is never polled computes none; the
// first poll then builds every memo by refilling each server once more, and
// from the next frame on each refill computes it off the runs it has just
// forecast. Every summary must equal a from-scratch one bitwise, and a warm
// poll must not allocate.
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
	memos := func() (valid, hosting int) {
		for _, srv := range c.Servers {
			if cc, _ := srv.PolicyState.(*serverCache); cc != nil && srv.NumHosted() > 0 {
				hosting++
				if cc.loadValid && cc.stamp == srv.Stamp() {
					valid++
				}
			}
		}
		return valid, hosting
	}
	for i := 0; i < 50; i++ {
		frame()
	}
	if c.Placements == 0 {
		t.Fatal("nothing was placed; the scenario proves nothing")
	}
	if valid, hosting := memos(); valid != 0 || hosting == 0 {
		t.Fatalf("before any poll %d of %d hosting servers carry a load memo; the admission path must not pay for it", valid, hosting)
	}
	var got, want platform.FleetLoad
	for i := 0; i < 20; i++ {
		p.FleetLoadInto(c.Servers, &got)
		p.FleetLoadFull(c.Servers, &want)
		requireBitIdentical(t, "poll", got, want)
		frame()
	}
	// The rule itself: the refill after a read memo makes the next one, the
	// refill after an unread memo does not. (A server placed on mid-frame may
	// have been refilled by the scan already; it is skipped.)
	p.FleetLoadInto(c.Servers, &got)
	for _, wantValid := range []bool{true, false} {
		revs := map[*platform.Server]uint64{}
		for _, srv := range c.Servers {
			revs[srv] = srv.Stamp().Rev
		}
		frame()
		checked := 0
		for _, srv := range c.Servers {
			if cc := srv.PolicyState.(*serverCache); srv.NumHosted() > 0 && srv.Stamp().Rev == revs[srv] {
				p.refresh(cc, srv)
				if cc.loadValid != wantValid {
					t.Fatalf("refill made a load memo: %v, want %v", cc.loadValid, wantValid)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("every server changed hands; the rule went untested")
		}
	}
	p.FleetLoadInto(c.Servers, &got)
	if allocs := testing.AllocsPerRun(100, func() { p.FleetLoadInto(c.Servers, &got) }); allocs != 0 {
		t.Errorf("warm FleetLoadInto allocates %.1f objects per poll, want 0", allocs)
	}
	// The cold path itself, warm: every stamp moved and no memo was read since,
	// so each poll refills every server twice.
	if allocs := testing.AllocsPerRun(100, func() {
		for _, srv := range c.Servers {
			cc := srv.PolicyState.(*serverCache)
			cc.stamp, cc.loadUsed = platform.Stamp{}, false
		}
		p.FleetLoadInto(c.Servers, &got)
	}); allocs != 0 {
		t.Errorf("cold-memo FleetLoadInto allocates %.1f objects per poll, want 0", allocs)
	}
	p.FleetLoadFull(c.Servers, &want)
	requireBitIdentical(t, "after the allocation runs", got, want)
}
