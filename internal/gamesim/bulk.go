package gamesim

import (
	"math"

	"cocg/internal/resources"
)

// Event-driven bulk advancement.
//
// A session whose grant covers its worst-case demand envelope has a provably
// degenerate per-second step: satisfaction is exactly 1.0, frames render at
// the spec's effective rate, and progress counters decrement by exactly 1.0.
// StepBulk exploits that to advance many seconds with a handful of scalar
// operations each, while remaining bitwise-identical to the same number of
// Step calls — including the sequential-RNG draw order at loading, stage, and
// spike events. The per-second demand jitter never needs to be evaluated on
// the fast path because it is stateless (noise.go) and cannot change the
// outcome once the envelope is covered.
//
// No driver calls these since PR 23 (platform ticks every second); the only
// caller left is bench/cocgbench's gamesim.stepbulk_ns_per_second probe, and
// the file goes with that probe (ROADMAP item 1).

// spikeBoostBound is the componentwise supremum of the burst boost a spike
// onset can apply (spikeAdvance draws boost < 30 and shapes it by these
// weights).
var spikeBoostBound = resources.New(30*0.8, 30, 30*0.5, 30*0.3)

// DemandEnvelope returns a componentwise worst-case bound on every demand
// vector the session can present from now until its next stage, segment, or
// loading transition (spike onsets and ends are covered by the bound and do
// not invalidate it). The bound is sound because demand jitter is hard-capped
// at ±noiseBound standard deviations and float arithmetic is monotone.
func (s *Session) DemandEnvelope() resources.Vector {
	if s.phase == PhaseDone {
		return resources.Zero
	}
	c := &s.Spec.Clusters[s.curCluster]
	wc := c.Demand
	if s.phase == PhaseExec && s.Spec.SpikeRate > 0 {
		// A burst pushes demand up by at most spikeBoostBound; a dip drops to
		// the loading cluster's level (which can exceed the execution base on
		// CPU). An already-active spike may carry a target drawn in an earlier
		// segment, so it is folded in explicitly.
		burst := c.Demand.Add(spikeBoostBound).Clamp(0, 100)
		wc = wc.Max(burst).Max(s.Spec.Clusters[LoadingCluster].Demand)
		if s.spikeLeft > 0 {
			wc = wc.Max(s.spikeTarget)
		}
	}
	for d := range wc {
		wc[d] += noiseBound * c.Jitter
	}
	return wc.Clamp(0, 100)
}

// WorstCaseDemand returns a componentwise bound on every demand vector any
// session of this spec can ever present — DemandEnvelope maximized over all
// clusters and spike states, with the spec's largest jitter. A controller
// whose steady request dominates it keeps its session on the bulk fast path
// in every phase.
func (g *GameSpec) WorstCaseDemand() resources.Vector {
	var wc resources.Vector
	var maxJ float64
	for ci := range g.Clusters {
		c := &g.Clusters[ci]
		v := c.Demand
		if g.SpikeRate > 0 {
			v = v.Add(spikeBoostBound).Clamp(0, 100)
		}
		wc = wc.Max(v)
		if c.Jitter > maxJ {
			maxJ = c.Jitter
		}
	}
	for d := range wc {
		wc[d] += noiseBound * maxJ
	}
	return wc.Clamp(0, 100)
}

// BulkHorizon returns how many upcoming full-supply seconds the current
// DemandEnvelope is guaranteed to cover, including the second on which the
// next transition fires. Zero means the session is done. The count is exact,
// not approximate: under satisfaction 1.0 the remaining-work floats decrement
// by exactly 1.0 per second (downward unit steps of a positive double are
// exact), so the transition second is ceil() of the remaining work.
func (s *Session) BulkHorizon() int {
	switch s.phase {
	case PhaseDone:
		return 0
	case PhaseLoading:
		return ceilSeconds(s.loadLeft)
	default:
		rem := s.execRemaining
		if s.segmentLeft < rem {
			rem = s.segmentLeft
		}
		return ceilSeconds(rem)
	}
}

// ceilSeconds converts remaining work into a whole-second event bound, at
// least 1.
func ceilSeconds(x float64) int {
	n := int(math.Ceil(x))
	if n < 1 {
		n = 1
	}
	return n
}

// StepBulk advances the session by up to n seconds under the fixed grant,
// bitwise-identical to calling Step(granted) n times. Seconds whose grant
// covers the demand envelope run on an allocation-free fast path that skips
// demand evaluation entirely; contended seconds (and any second the envelope
// cannot certify) fall back to the full Step. Returns the seconds consumed,
// which is n unless the session completes first.
//
//cocg:hot
func (s *Session) StepBulk(granted resources.Vector, n int) int {
	g := granted.Load().ClampNonNegative()
	consumed := 0
	for consumed < n {
		if s.phase == PhaseDone {
			// Step on a done session is a no-op (it never touches the RNG),
			// so the remaining seconds can be dropped outright.
			break
		}
		if !s.envelopeCovered(g) {
			s.Step(granted.Load())
			consumed++
			continue
		}
		k := n - consumed
		if h := s.BulkHorizon(); h < k {
			k = h
		}
		consumed += s.fastRun(k)
	}
	return consumed
}

// envelopeCovered reports whether the (non-negative) grant dominates the
// current demand envelope — the certificate that satisfaction will be exactly
// 1.0 without looking at a single jitter draw.
func (s *Session) envelopeCovered(g resources.V4) bool {
	wc := s.DemandEnvelope()
	return !(g.C0 < wc[0] || g.C1 < wc[1] || g.C2 < wc[2] || g.C3 < wc[3])
}

// fastRun advances up to k seconds of the sat == 1.0 specialization of Step,
// stopping after the second that fires a stage, segment, or loading
// transition (the envelope must be re-derived there). Returns the seconds
// actually run. Callers must have certified the envelope for all k seconds.
//
//cocg:hot
func (s *Session) fastRun(k int) int {
	// The phase only changes on a transition, which ends the run.
	spiky := s.phase == PhaseExec && s.Spec.SpikeRate > 0
	for i := 0; i < k; i++ {
		if spiky {
			// Demand()'s spike bookkeeping, in draw order: onset decisions
			// precede the step's spike-duration countdown.
			s.spikeAdvance()
		}
		if s.stepSatisfied() {
			return i + 1
		}
	}
	return k
}

// StepSatisfied is Step(s.Demand()): one second under a grant equal to the
// tick's realised demand, which is what a server hands every session on a
// second it can prove uncontended. Bitwise the same state as Step leaves,
// without the satisfaction ratio, the cpuSat divisions or the lag branch.
//
//cocg:hot
func (s *Session) StepSatisfied() {
	if !s.demandValid {
		s.Demand() // the tick's spike draw happens when its demand is realised
	}
	s.demandValid = false
	s.stepSatisfied()
}

// stepSatisfied is the one copy of Step specialised to satisfaction exactly
// 1.0, minus the demand evaluation: the caller has realised the tick's demand
// (StepSatisfied) or replayed its only side effect, spikeAdvance (fastRun).
// It reports whether the second fired a stage, segment or loading transition.
// Float by float against Step with granted == demand >= 0: each ratio is
// d/d == 1 (0/0 counts as 1), so sat == cpuSat == 1; loadExtended += 1-1 is a
// bitwise no-op on a non-negative accumulator; fps == EffectiveFPS*1.0 is
// bitwise EffectiveFPS; sat < 0.95 and sat < lagThreshold are false, so
// degraded stays and progress is exactly 1.0.
//
//cocg:hot
func (s *Session) stepSatisfied() bool {
	switch s.phase {
	case PhaseLoading:
		s.elapsed++
		s.loadSeconds++
		s.loadLeft -= 1.0
		s.lastFPS = 0
		s.lastSat = 1
		if s.loadLeft <= 0 {
			s.finishLoading()
			return true
		}
	case PhaseExec:
		s.elapsed++
		s.execSeconds++
		if s.spikeLeft > 0 {
			s.spikeLeft--
		}
		fps := s.Spec.EffectiveFPS()
		s.lastFPS = fps
		s.lastSat = 1
		s.fpsSum += fps
		bucket := int(fps / 4)
		if bucket > fpsBuckets {
			bucket = fpsBuckets
		}
		s.fpsHist[bucket]++
		if fps >= 30 {
			s.goodFPS++
		}
		s.execRemaining -= 1.0
		s.segmentLeft -= 1.0
		if s.execRemaining <= 0 {
			s.enterNextLoading()
			return true
		} else if s.segmentLeft <= 0 {
			s.advanceSegment()
			return true
		}
	}
	return false
}
