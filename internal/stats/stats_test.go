package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {120, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	if !almost(Median(xs), 3) {
		t.Error("Median wrong")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestAccuracy(t *testing.T) {
	var a Accuracy
	if a.Value() != 0 {
		t.Error("empty accuracy != 0")
	}
	a.Observe(true)
	a.Observe(true)
	a.Observe(false)
	if !almost(a.Value(), 2.0/3) {
		t.Errorf("Value = %v", a.Value())
	}
}

func TestPropertyMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip pathological inputs
			}
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-6 && m <= slices.Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPercentileMonotonic(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// percentileRef is Percentile as it was before Percentiles: a copy and a sort
// per call. It is the oracle TestPercentilesMatchPerCall holds the one-sort
// form to.
func percentileRef(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestPercentilesMatchPerCall requires every entry of one Percentiles call
// to carry the bits of a separate per-call percentile, for p at and past both
// ends, interior ranks (exact and interpolated), a single sample and an
// empty slice.
func TestPercentilesMatchPerCall(t *testing.T) {
	ps := []float64{-5, 0, 1, 25, 50, 62.5, 90, 99, 99.9, 100, 150}
	for _, xs := range [][]float64{
		nil,
		{7.25},
		{3, 1, 2},
		{0.1, 0.7, 0.2, 1e-9, 5e3, 0.3, math.Copysign(0, -1), 42, 0.3, 17},
	} {
		got := Percentiles(xs, ps...)
		if len(got) != len(ps) {
			t.Fatalf("Percentiles(%v) returned %d values for %d ranks", xs, len(got), len(ps))
		}
		for i, p := range ps {
			want := percentileRef(xs, p)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("Percentiles(%v)[p=%v] = %v, per-call %v", xs, p, got[i], want)
			}
			if one := Percentile(xs, p); math.Float64bits(one) != math.Float64bits(want) {
				t.Errorf("Percentile(%v, %v) = %v, per-call %v", xs, p, one, want)
			}
		}
	}
}
