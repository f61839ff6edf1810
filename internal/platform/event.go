package platform

import (
	"fmt"

	"cocg/internal/parallel"
	"cocg/internal/simclock"
)

// Event-driven cluster advancement.
//
// The per-second loop (Cluster.Tick) stops the whole fleet every virtual
// second. This driver advances between *stop points* — the simulation end
// and the frame boundaries at which an arrival is queued or due, the only
// seconds placement can happen — and lets every server run the span's
// seconds back to back (Server.advanceSpan): one visit per server per span,
// every second still a real tickAt, so the outputs are the per-second loop's
// bit for bit.

// tickChunk is the granularity of the parallel per-server fan-out: fixed
// chunks keep the work decomposition — and therefore every per-server result
// — independent of the worker count.
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

// advanceSpan runs one server through the span seconds after base, one tickAt
// per second — the paper's controllers observe and regulate every second, so
// none can be skipped. A server that empties stops early: ticking it is a
// no-op.
func (s *Server) advanceSpan(p Policy, base, span simclock.Seconds) {
	for off := simclock.Seconds(0); off < span && len(s.Hosted) > 0; off++ {
		s.tickAt(p, base+off)
	}
}
