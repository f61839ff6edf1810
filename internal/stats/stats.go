// Package stats provides the small set of statistics helpers the experiment
// harnesses and the clusterer share: means, percentiles, and simple
// accuracy accounting.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 { return Percentiles(xs, p)[0] }

// Percentiles returns Percentile(xs, p) for each p in ps, sorting xs once.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		rank := p / 100 * float64(len(sorted)-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		switch {
		case p <= 0:
			out[i] = sorted[0]
		case p >= 100:
			out[i] = sorted[len(sorted)-1]
		case lo == hi:
			out[i] = sorted[lo]
		default:
			frac := rank - float64(lo)
			out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
		}
	}
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Accuracy is an online counter of correct/total classification outcomes.
type Accuracy struct {
	Correct int
	Total   int
}

// Observe records one outcome.
func (a *Accuracy) Observe(correct bool) {
	a.Total++
	if correct {
		a.Correct++
	}
}

// Value returns the fraction correct in [0, 1], or 0 when nothing was
// observed.
func (a *Accuracy) Value() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Total)
}
