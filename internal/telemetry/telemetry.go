// Package telemetry is the measurement substrate standing in for the paper's
// GPU-Z + cgroup collection pipeline (Section V-A): it aggregates per-second
// utilization observations into the 5-second frames the predictor consumes.
package telemetry

import (
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Sampler folds per-second observations into frames of simclock.FrameLen
// seconds. The zero Sampler is ready to use.
type Sampler struct {
	// sum is the in-order running sum of the n observations of the current
	// frame — the same fold resources.Mean performs over a buffer.
	sum resources.V4
	n   int
}

// Observe records one second of utilization. When the observation completes
// a frame, the frame's mean vector is returned with ok = true.
//
//cocg:hot
func (s *Sampler) Observe(v resources.V4) (frame resources.V4, ok bool) {
	s.sum = s.sum.Add(v)
	s.n++
	if s.n < int(simclock.FrameLen) {
		return resources.V4{}, false
	}
	frame = s.sum.Scale(1 / float64(s.n))
	s.Reset()
	return frame, true
}

// Pending returns how many seconds of the current frame have been observed.
func (s *Sampler) Pending() int { return s.n }

// Reset discards any partial frame.
func (s *Sampler) Reset() { s.sum, s.n = resources.V4{}, 0 }
