// Package telemetry is the measurement substrate standing in for the paper's
// GPU-Z + cgroup collection pipeline (Section V-A): it aggregates per-second
// utilization observations into the 5-second frames the predictor consumes,
// adding sensor noise, and keeps a bounded history of recent frames.
package telemetry

import (
	"math/rand"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Sampler folds per-second observations into frames of simclock.FrameLen
// seconds. Each observation may be perturbed by Gaussian sensor noise, as
// real utilization counters are. Owners may hold a Sampler by value; a copy
// shares the noise source, so copy only to move it.
type Sampler struct {
	noise float64
	rng   *rand.Rand // nil when noise is off: the source is never read
	// sum is the in-order running sum of the n observations of the current
	// frame — the same fold resources.Mean performs over a buffer.
	sum resources.Vector
	n   int
}

// NewSampler returns a sampler with the given per-second sensor-noise
// standard deviation (in percent points). The noise source is seeded only
// when noise is on: seeding math/rand's 607-word state costs more than a
// short session's whole telemetry fold.
func NewSampler(noiseStd float64, seed int64) *Sampler {
	s := &Sampler{noise: noiseStd}
	if noiseStd > 0 {
		s.rng = rand.New(rand.NewSource(seed))
	}
	return s
}

// Observe records one second of utilization. When the observation completes
// a frame, the frame's mean vector is returned with ok = true.
func (s *Sampler) Observe(v resources.Vector) (frame resources.Vector, ok bool) {
	if s.noise > 0 {
		for d := range v {
			v[d] += s.rng.NormFloat64() * s.noise
		}
		v = v.Clamp(0, 100)
	}
	s.sum = s.sum.Add(v)
	s.n++
	if s.n < int(simclock.FrameLen) {
		return resources.Zero, false
	}
	frame = s.sum.Scale(1 / float64(s.n))
	s.Reset()
	return frame, true
}

// Pending returns how many seconds of the current frame have been observed.
func (s *Sampler) Pending() int { return s.n }

// Reset discards any partial frame.
func (s *Sampler) Reset() { s.sum, s.n = resources.Zero, 0 }

// History is a bounded ring buffer of the most recent frames.
type History struct {
	frames []resources.Vector
	cap    int
	total  int
}

// NewHistory returns a history retaining up to capacity frames; capacity
// must be positive.
func NewHistory(capacity int) *History {
	if capacity < 1 {
		capacity = 1
	}
	return &History{cap: capacity}
}

// Push appends a frame, evicting the oldest when full.
func (h *History) Push(v resources.Vector) {
	h.total++
	if len(h.frames) < h.cap {
		h.frames = append(h.frames, v)
		return
	}
	copy(h.frames, h.frames[1:])
	h.frames[len(h.frames)-1] = v
}

// Len returns how many frames are currently retained.
func (h *History) Len() int { return len(h.frames) }

// Total returns how many frames were ever pushed.
func (h *History) Total() int { return h.total }

// Last returns the i-th most recent frame (0 = newest). The second return is
// false when fewer than i+1 frames are retained.
func (h *History) Last(i int) (resources.Vector, bool) {
	if i < 0 || i >= len(h.frames) {
		return resources.Zero, false
	}
	return h.frames[len(h.frames)-1-i], true
}

// Snapshot returns the retained frames oldest-first; the slice is a copy.
func (h *History) Snapshot() []resources.Vector {
	out := make([]resources.Vector, len(h.frames))
	copy(out, h.frames)
	return out
}

// Mean returns the mean of the retained frames.
func (h *History) Mean() resources.Vector { return resources.Mean(h.frames) }

// Peak returns the component-wise maximum of the retained frames.
func (h *History) Peak() resources.Vector { return resources.PeakOf(h.frames) }
