package platform

import (
	"fmt"

	"cocg/internal/parallel"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Event-driven cluster advancement.
//
// The legacy loop pays O(sessions) every virtual second even when nothing
// happens. This driver advances between *stop points* — the simulation end
// and the frame boundaries at which an arrival is queued or due, the only
// seconds placement can happen — and lets every server cross the span in
// bulk. A server whose policy provably cannot intervene (NoopRegulator, all
// controllers steady, requests covering every session's demand envelope
// within capacity) advances each session with Session.StepBulk and runs one
// real per-second tick at the window's last second; that closing tick
// performs the full grant/regulate/sweep bookkeeping, which is what makes
// the whole construction bitwise-identical to ticking every second (see
// docs/PERFORMANCE.md for the certificate).

// tickChunk is the granularity of the parallel per-server fan-out. Like the
// placement scan, fixed chunks keep the work decomposition — and therefore
// every per-server result — independent of the worker count.
const tickChunk = 32

// TickSpan advances every server by span seconds and moves the cluster
// clock. Placement is not attempted inside the span: callers must choose
// spans that stop at every frame boundary where pending arrivals could
// place (RunEvented does).
func (c *Cluster) TickSpan(span simclock.Seconds) {
	if span <= 0 {
		return
	}
	base := c.Clock.Now()
	jobs := c.Jobs
	ct, okCT := c.Policy.(ConcurrentTicker)
	if jobs > 1 && okCT && ct.ConcurrentTickSafe() && len(c.Servers) > 1 {
		parallel.ForChunksOf(jobs, len(c.Servers), tickChunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Servers[i].advanceSpan(c.Policy, base, span)
			}
		})
	} else {
		for _, srv := range c.Servers {
			srv.advanceSpan(c.Policy, base, span)
		}
	}
	c.Clock.Advance(span)
}

// RunEvented advances the cluster for d seconds, feeding it the pregenerated
// arrival schedule (e.g. from workload.MixStream's Schedule). It reproduces
// the legacy Feed+Tick loop's outputs exactly — Records, Placements,
// RejectedTicks, starvation blocking — while stopping the fleet only where
// placement can happen: at the end, and at a frame boundary at which an arrival
// is pending or due. Between stops every server runs its seconds back to back
// (Server.advanceSpan), so a frame costs one visit per server however many
// arrivals fall inside it.
//
// An arrival becomes visible in Pending, in schedule order, at the first stop
// at or after its Submitted second: the frame boundary it can first be placed
// on, or the return. Nothing reads Pending in between — the legacy loop's
// tryPlace acts on frame boundaries only — and on return every scheduled
// arrival is in Pending or placed.
//
// The schedule must be ascending in Submitted (several arrivals may share a
// second) and lie inside [now, now+d); one that is not is refused with an
// error before the clock moves or anything is enqueued.
func (c *Cluster) RunEvented(d simclock.Seconds, schedule []Arrival) error {
	prev, end := c.Clock.Now(), c.Clock.Now()+d
	for i := range schedule {
		if schedule[i].Submitted < prev {
			return fmt.Errorf("platform: schedule not ascending: arrival %d is submitted at %d, after one at %d (or the clock)",
				i, schedule[i].Submitted, prev)
		}
		prev = schedule[i].Submitted
	}
	if len(schedule) > 0 && prev >= end {
		return fmt.Errorf("platform: schedule outruns the run: an arrival is submitted at %d, the run ends at %d", prev, end)
	}
	idx := 0
	for now := c.Clock.Now(); now < end; now = c.Clock.Now() {
		for idx < len(schedule) && schedule[idx].Submitted <= now {
			c.Pending = append(c.Pending, schedule[idx])
			idx++
		}
		if simclock.IsFrameBoundary(now) {
			c.tryPlace()
		}
		// Next stop: the next frame boundary while anything is pending, else
		// the first boundary at or after the next arrival, else the end.
		stop := end
		if len(c.Pending) > 0 {
			stop = nextFrameBoundary(now)
		} else if idx < len(schedule) {
			stop = nextFrameBoundary(schedule[idx].Submitted - 1)
		}
		if stop > end {
			stop = end
		}
		c.TickSpan(stop - now)
	}
	// The last stop is the end, where the loop no longer runs: arrivals due
	// after the last boundary are still to be enqueued.
	c.Pending = append(c.Pending, schedule[idx:]...)
	return nil
}

// nextFrameBoundary returns the first frame boundary strictly after t.
func nextFrameBoundary(t simclock.Seconds) simclock.Seconds {
	return simclock.FrameStart(t) + simclock.FrameLen
}

// advanceSpan advances one server span seconds past base. Every second the
// server cannot certify runs as a normal per-second tick; certified windows
// advance all sessions StepBulk-fast through the window's first w-1 seconds
// and close with one real tick, so grants, regulation, records and revision
// bookkeeping happen exactly where the legacy loop would have produced
// observable effects.
func (s *Server) advanceSpan(p Policy, base, span simclock.Seconds) {
	for off := simclock.Seconds(0); off < span; {
		if len(s.Hosted) == 0 {
			// An empty server's tick is a no-op; skip the rest of the span.
			return
		}
		var w simclock.Seconds
		if rem := span - off; rem >= 2 {
			// Certification only pays for itself when a window of at least
			// two seconds could result; a single-second remainder ticks
			// directly.
			w = simclock.Seconds(s.bulkWindow(p, int(rem)))
		}
		if w >= 2 {
			steady := s.scratch.steady[:len(s.Hosted)]
			for i, h := range s.Hosted {
				h.Session.StepBulk(steady[i], int(w)-1)
			}
			// bulkWindow's certificate (requests cover the envelopes, the
			// envelopes fit capacity) implies tickAt's on each skipped second.
			s.ticks += uint64(w - 1)
			s.uncontended += uint64(w - 1)
			s.tickAt(p, base+off+w-1)
			off += w
		} else {
			s.tickAt(p, base+off)
			off++
		}
	}
}

// bulkWindow returns the widest window (capped at maxSpan) the server can
// certify for bulk advancement, or 0 when it must tick per-second. The
// certificate, checked per window against the *current* session states:
//
//  1. the policy's Regulate is a pure no-op (NoopRegulator);
//  2. every hosted controller is steady (SteadyRequester), so skipped Tick
//     calls are unobservable and requests cannot change inside the window;
//  3. each steady request covers its session's demand envelope, and the
//     envelope sum fits capacity — then needs equal demands, the
//     proportional scale is exactly 1, deficits are exactly zero, and every
//     grant is bitwise the demand, i.e. satisfaction is exactly 1.0;
//  4. the window never outruns a session's event horizon, so stage, segment
//     and loading transitions land on the window's closing per-second tick.
//
// On success the hosted controllers' steady requests are left in
// scratch.steady for the caller.
func (s *Server) bulkWindow(p Policy, maxSpan int) int {
	nr, ok := p.(NoopRegulator)
	if !ok || !nr.RegulateIsNoop() {
		return 0
	}
	if cap(s.scratch.steady) < len(s.Hosted) {
		s.scratch.grow(len(s.Hosted))
	}
	steady := s.scratch.steady[:len(s.Hosted)]
	w := maxSpan
	var envTotal resources.Vector
	for i, h := range s.Hosted {
		sr, ok := h.Controller.(SteadyRequester)
		if !ok {
			return 0
		}
		req, ok := sr.SteadyRequest()
		if !ok {
			return 0
		}
		req = req.ClampNonNegative()
		wc := h.Session.DemandEnvelope()
		for d := range wc {
			if req[d] < wc[d] {
				return 0
			}
		}
		envTotal = envTotal.Add(wc)
		steady[i] = req
		if hz := h.Session.BulkHorizon(); hz < w {
			w = hz
		}
	}
	// Envelope sum within capacity: float sums are monotone, so the real
	// per-second demand totals cannot exceed it either.
	for d := range envTotal {
		if envTotal[d] > s.Capacity[d] {
			return 0
		}
	}
	return w
}
