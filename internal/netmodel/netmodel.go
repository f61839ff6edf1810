// Package netmodel simulates the network connection of Fig. 1 — the piece
// between the cloud server and the player that the operator manages. Cloud
// gaming is brutally latency-sensitive (the paper cites a <3 ms network
// budget for visual display), so the delivery model matters: a frame batch
// that exceeds the link's bandwidth-delay budget arrives late and counts
// as a stutter even when the server rendered it on time.
package netmodel

import (
	"math"
	"math/rand"
)

// Link models one client's access path. FiberLink, CableLink and
// MobileLink build the three the model knows.
type Link struct {
	// baseLatencyMS is the one-way propagation delay.
	baseLatencyMS float64
	// jitterMS is the standard deviation of per-delivery latency noise.
	jitterMS float64
	// bandwidthKbps caps the video stream; queuing delay grows as the
	// encoder output approaches it.
	bandwidthKbps float64
	// lossRate is the probability a delivery is dropped entirely.
	lossRate float64

	rng *rand.Rand
	// backlogKb is queued-but-unsent data from previous seconds.
	backlogKb float64
}

// FiberLink models a metropolitan fiber connection: the paper's <3 ms
// network budget is achievable here.
func FiberLink(seed int64) *Link {
	return newLink(Link{baseLatencyMS: 2, jitterMS: 0.5, bandwidthKbps: 100_000}, seed)
}

// CableLink models a typical cable/DOCSIS access path.
func CableLink(seed int64) *Link {
	return newLink(Link{baseLatencyMS: 8, jitterMS: 2, bandwidthKbps: 40_000, lossRate: 0.001}, seed)
}

// MobileLink models a good 4G/5G connection: workable bandwidth but jittery.
func MobileLink(seed int64) *Link {
	return newLink(Link{baseLatencyMS: 25, jitterMS: 8, bandwidthKbps: 15_000, lossRate: 0.005}, seed)
}

// newLink returns a link with the given parameters and its own RNG.
func newLink(params Link, seed int64) *Link {
	params.rng = rand.New(rand.NewSource(seed))
	return &params
}

// Delivery is the outcome of sending one second of video.
type Delivery struct {
	// Delivered is false when the batch was lost.
	Delivered bool
	// LatencyMS is the total delivery latency: propagation + jitter +
	// queuing behind the link's backlog.
	LatencyMS float64
	// Stutter marks a delivery late enough (>100 ms) to be visible.
	Stutter bool
}

// Send models transmitting kbps worth of one second's video over the link.
func (l *Link) Send(kbps float64) Delivery {
	if l.lossRate > 0 && l.rng.Float64() < l.lossRate {
		return Delivery{}
	}
	// The link drains bandwidthKbps per second; what does not fit queues.
	l.backlogKb += kbps
	drained := l.bandwidthKbps
	if l.backlogKb <= drained {
		l.backlogKb = 0
	} else {
		l.backlogKb -= drained
	}
	// Queuing delay: time to flush the remaining backlog at line rate.
	queueMS := 0.0
	if l.bandwidthKbps > 0 {
		queueMS = l.backlogKb / l.bandwidthKbps * 1000
	}
	// Jitter is drawn only on a jittery link, as loss is only on a lossy one,
	// so a zero Link (no rng) delivers without drawing.
	jitter := 0.0
	if l.jitterMS > 0 {
		jitter = math.Abs(l.rng.NormFloat64()) * l.jitterMS
	}
	lat := l.baseLatencyMS + jitter + queueMS
	return Delivery{
		Delivered: true,
		LatencyMS: lat,
		Stutter:   lat > 100,
	}
}

// Backlog returns the queued kilobits awaiting transmission.
func (l *Link) Backlog() float64 { return l.backlogKb }

// Stats accumulates delivery outcomes.
type Stats struct {
	Sent, Lost, Stutters int
	latencySum           float64
	worst                float64
}

// Observe folds one delivery in.
func (s *Stats) Observe(d Delivery) {
	s.Sent++
	if !d.Delivered {
		s.Lost++
		return
	}
	s.latencySum += d.LatencyMS
	if d.LatencyMS > s.worst {
		s.worst = d.LatencyMS
	}
	if d.Stutter {
		s.Stutters++
	}
}

// MeanLatencyMS returns the mean delivered latency.
func (s *Stats) MeanLatencyMS() float64 {
	n := s.Sent - s.Lost
	if n == 0 {
		return 0
	}
	return s.latencySum / float64(n)
}

// WorstLatencyMS returns the worst delivered latency.
func (s *Stats) WorstLatencyMS() float64 { return s.worst }

// StutterRate returns the fraction of sent batches that stuttered or were
// lost.
func (s *Stats) StutterRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Stutters+s.Lost) / float64(s.Sent)
}
