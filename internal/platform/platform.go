// Package platform is the cloud-game hosting substrate standing in for the
// paper's GamingAnywhere servers: it runs sessions on capacity-limited
// servers, routes per-second measurements to a per-game controller (the
// scheduling policy's agent), applies the policy's server-level regulation,
// and grants resources — letting execution stages drop frames and loading
// stages stretch exactly as the real system would.
package platform

import (
	"fmt"
	"sort"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Controller is one game's per-session resource agent. Every virtual second
// it observes the game's measured utilization (its demand capped by what was
// granted) and returns the allocation cap it requests for the next second.
type Controller interface {
	// Name identifies the policy that produced the controller.
	Name() string
	// Tick observes one second of utilization and returns the requested cap.
	Tick(util resources.Vector) resources.Vector
	// Loading reports the controller's belief that the game is loading —
	// the regulator steals time only from loading games.
	Loading() bool
}

// HardCapper is an optional Controller refinement: a controller whose
// requests are hard partitions (GAugur's fixed limits, VBP's reservations)
// rather than soft caps. Hard-capped games do not receive work-conserving
// spare capacity beyond their request.
type HardCapper interface {
	HardCapped() bool
}

// Policy is a complete co-location scheduling scheme: placement (the
// distributor), per-game control, and server-level regulation.
type Policy interface {
	// Name identifies the scheme in result tables.
	Name() string
	// Score reports whether the game may be placed on the server now and how
	// well it would fit there: the cluster places it on the admitting server
	// with the highest score, exact ties going to the earliest in server
	// order. A scheme with no preference returns (0, ok), which is first fit.
	// The verdict is a function of the server and the game alone: within one
	// placement round the cluster asks each server once per game and again
	// only after that server hosts a new session (Cluster's scoreboard).
	Score(srv *Server, spec *gamesim.GameSpec) (score float64, ok bool)
	// NewController returns the per-session agent for an admitted game.
	NewController(spec *gamesim.GameSpec, habit int64) (Controller, error)
	// Regulate may lower hosted games' requests when the server is about to
	// oversubscribe (e.g. extend loading stages). It runs once per second
	// after all controllers ticked. Regulate and the controllers touch only
	// the server they are handed: the cluster runs each server's seconds of a
	// span back to back, one server after another.
	Regulate(srv *Server)
}

// Hosted is one game session running on a server.
type Hosted struct {
	ID         int
	Spec       *gamesim.GameSpec
	Session    *gamesim.Session
	Controller Controller
	// Request is the controller's current allocation cap.
	Request resources.Vector
	// Granted is what the server actually gave last second.
	Granted resources.Vector
	// Arrived is when the session was placed.
	Arrived simclock.Seconds

	lastGrant resources.Vector
}

// Record is the outcome of one completed session.
type Record struct {
	Game        string
	Arrived     simclock.Seconds
	Finished    simclock.Seconds
	Elapsed     simclock.Seconds
	ExecSeconds simclock.Seconds
	AvgFPS      float64
	FPSRatio    float64
	GoodFPSFrac float64
	Degraded    float64
	LoadStolen  float64
	// P5FPS is the 5th-percentile per-second frame rate: the stutter floor
	// the player actually felt.
	P5FPS float64
}

// RecordSink consumes completed-session records as they happen. A server
// with a sink streams records into it instead of retaining them in
// Server.Records, keeping million-session runs at O(1) memory per
// completion.
type RecordSink interface {
	ConsumeRecord(serverID int, r Record)
}

// Server is one capacity-limited game server.
type Server struct {
	ID       int
	Capacity resources.Vector
	Hosted   []*Hosted
	Records  []Record
	// Sink, when non-nil, receives each completed session's record instead
	// of Server.Records retaining it.
	Sink RecordSink

	clock  *simclock.Clock
	nextID int
	// scratch holds the per-tick working vectors, grown once to the hosted
	// count and reused so a steady-state tick allocates nothing.
	scratch tickScratch
	// reqTotal and utilTotal are running copies of what RequestTotal and
	// Utilization used to recompute O(hosted) on every scheduler probe. They
	// are maintained to be bit-identical with the fold-in-hosted-order
	// recompute: accumulated in the same order during the tick and re-derived
	// from scratch whenever a sweep changes membership (an admission appends
	// zero vectors, which cannot change either fold).
	reqTotal  resources.Vector
	utilTotal resources.Vector
	// peakUtil tracks the highest total grant observed, for reporting.
	peakUtil resources.Vector
	// rev counts membership changes (admissions and departures) and
	// SyncTotals calls. With ticks it stamps everything a cached
	// per-server aggregate depends on: hosted state moves only inside a tick
	// or through a revision.
	rev uint64
	// ticks counts the non-empty seconds this server has simulated and
	// uncontended those among them that met tickAt's certificate; the
	// difference is the seconds on which demand met a cap or capacity.
	ticks, uncontended uint64
	// forceGeneral sends every second down the general path; only the
	// differential tests set it (export_test.go).
	forceGeneral bool

	// PolicyState belongs to the cluster's policy, which may keep per-server
	// state here (CoCG's forecast cache); the platform never reads it, just as
	// it never looks inside a Hosted's Controller.
	PolicyState any
}

// Rev returns the server's revision: it bumps whenever a session is added or
// swept out and on every SyncTotals, never otherwise. Between ticks, hosted
// state changes only under a new revision, so a policy may key a per-server
// cache on (Rev, the first TickCounts result).
func (s *Server) Rev() uint64 { return s.rev }

// TickCounts returns how many non-empty virtual seconds the server has
// simulated and how many of those were uncontended: every realised demand
// within its (regulated) request and their sum within capacity, so every
// session was granted exactly what it asked for.
func (s *Server) TickCounts() (seconds, uncontended uint64) { return s.ticks, s.uncontended }

// NewServer returns a server with the given capacity, sharing the cluster
// clock.
func NewServer(id int, capacity resources.Vector, clock *simclock.Clock) *Server {
	return &Server{ID: id, Capacity: capacity, clock: clock}
}

// Add places a session on the server under the given controller.
func (s *Server) Add(spec *gamesim.GameSpec, sess *gamesim.Session, ctl Controller) *Hosted {
	h := &Hosted{
		ID:         s.nextID,
		Spec:       spec,
		Session:    sess,
		Controller: ctl,
		Arrived:    s.clock.Now(),
		lastGrant:  resources.FullServer,
	}
	s.nextID++
	s.rev++
	s.Hosted = append(s.Hosted, h)
	return h
}

// NumHosted returns how many sessions are currently running.
func (s *Server) NumHosted() int { return len(s.Hosted) }

// Utilization returns the sum of last grants — the server's current load.
// The total is maintained incrementally but is bit-identical to summing
// h.Granted over Hosted in order.
func (s *Server) Utilization() resources.Vector { return s.utilTotal }

// PeakUtilization returns the highest total grant seen so far.
func (s *Server) PeakUtilization() resources.Vector { return s.peakUtil }

// RequestTotal returns the sum of current controller requests. The total is
// maintained incrementally but is bit-identical to summing h.Request over
// Hosted in order.
func (s *Server) RequestTotal() resources.Vector { return s.reqTotal }

// SyncTotals re-derives the running request/utilization totals from the
// hosted list. The tick loop maintains them itself; callers that mutate
// Hosted state directly (test harnesses crafting a scenario) must call this
// before probing RequestTotal or Utilization; it bumps Rev, so caches keyed
// on it see the change.
func (s *Server) SyncTotals() {
	s.rev++
	s.recomputeTotals()
}

// recomputeTotals re-derives both running totals with the canonical
// fold-in-hosted-order sums. Called after membership shrinks: a departed
// session's contribution cannot be subtracted bitwise, so the fold restarts.
func (s *Server) recomputeTotals() {
	var req, util resources.Vector
	for _, h := range s.Hosted {
		req = req.Add(h.Request)
		util = util.Add(h.Granted)
	}
	s.reqTotal, s.utilTotal = req, util
}

// tickScratch holds Server.Tick's per-hosted working vectors, grown once and
// reused so steady-state ticks allocate nothing.
type tickScratch struct {
	demands  []resources.Vector
	needs    []resources.Vector
	grants   []resources.Vector
	deficits []resources.Vector
}

// grow resizes every scratch slice to at least n entries. It runs only when
// the hosted count exceeds every previous tick's (a cold membership event,
// never steady state); noinline keeps its allocations from being attributed
// into the //cocg:hot callers by inlining.
//
//go:noinline
func (t *tickScratch) grow(n int) {
	t.demands = make([]resources.Vector, n)
	t.needs = make([]resources.Vector, n)
	t.grants = make([]resources.Vector, n)
	t.deficits = make([]resources.Vector, n)
}

// Tick advances the server by one virtual second under the given policy:
// controllers observe and request, the policy regulates, and the server
// grants min(demand, request) — scaled down proportionally per dimension in
// the (policy-failure) case where even the needs exceed capacity.
func (s *Server) Tick(p Policy) {
	s.tickAt(p, s.clock.Now())
}

// tickAt is Tick with an explicit timestamp: the event-driven driver runs
// servers ahead of the shared cluster clock, so completion records must be
// stamped with the virtual second being simulated rather than the clock.
//
// After regulation it decides, from the second's realised demands, whether the
// second is uncontended — every demand within its request, the demands summing
// within capacity. On such a second the grant computation is the identity, and
// one fused pass replaces the general path's four; any other second takes the
// general path. docs/PERFORMANCE.md ("The scratch-backed tick") has the proof.
//
//cocg:hot
func (s *Server) tickAt(p Policy, now simclock.Seconds) {
	n := len(s.Hosted)
	if n == 0 {
		return
	}
	s.ticks++
	if cap(s.scratch.demands) < n {
		s.scratch.grow(n)
	}
	demands := s.scratch.demands[:n]
	var reqTotal, utilPrev resources.Vector
	for i, h := range s.Hosted {
		d := h.Session.Demand()
		demands[i] = d
		// Measured utilization is demand capped by the previous grant: a
		// throttled game cannot consume more than it was given.
		util := d.Min(h.lastGrant)
		h.Request = h.Controller.Tick(util).ClampNonNegative()
		reqTotal = reqTotal.Add(h.Request)
		utilPrev = utilPrev.Add(h.Granted)
	}
	// Publish the running totals the regulator may probe: requests are this
	// second's, grants are still last second's — exactly what the fold-based
	// recompute would return at this point.
	s.reqTotal, s.utilTotal = reqTotal, utilPrev
	p.Regulate(s)

	// Effective needs under the (possibly regulated) requests; the request
	// total is re-derived because Regulate may have lowered requests. covered
	// stays true while every demand is within its request, compared as
	// !(d <= r) so that a NaN request fails it.
	needs := s.scratch.needs[:n]
	var total resources.Vector
	reqTotal = resources.Zero
	covered := !s.forceGeneral
	for i, h := range s.Hosted {
		needs[i] = demands[i].Min(h.Request)
		total = total.Add(needs[i])
		reqTotal = reqTotal.Add(h.Request)
		for d := range needs[i] {
			if !(demands[i][d] <= h.Request[d]) {
				covered = false
			}
		}
	}
	s.reqTotal = reqTotal

	if covered && total.Fits(s.Capacity) {
		// Uncontended: the general path below would compute exactly this. With
		// needs == demands every scale is 1 (x*1 == x), every deficit is
		// d-d == +0 so no share is taken (and d+0 == d for the non-negative
		// demands Session.Demand clamps to), Request.Max(d) keeps Request, and
		// all three grant folds are total. docs/PERFORMANCE.md goes through it
		// float by float.
		s.uncontended++
		finished := false
		for i, h := range s.Hosted {
			h.Granted = demands[i]
			h.lastGrant = h.Request
			h.Session.StepSatisfied()
			finished = finished || h.Session.Done()
		}
		s.peakUtil = s.peakUtil.Max(total)
		s.utilTotal = total
		if finished {
			s.sweep(now)
		}
		return
	}

	// Per-dimension scale factor when needs exceed capacity.
	var scale resources.Vector
	for d := range scale {
		if total[d] > s.Capacity[d] && total[d] > 0 {
			scale[d] = s.Capacity[d] / total[d]
		} else {
			scale[d] = 1
		}
	}
	grants := s.scratch.grants[:n]
	var granted resources.Vector
	for i := range s.Hosted {
		g := needs[i]
		for d := range g {
			g[d] *= scale[d]
		}
		grants[i] = g
		granted = granted.Add(g)
	}

	// Work-conserving redistribution: capacity left over after every cap is
	// honored flows to games whose demand exceeds their cap (a cgroup soft
	// limit / GPU time-slice behaves the same way). Caps therefore bind
	// only when the server is actually contended — except for hard-capped
	// controllers (fixed partitions), which never receive spare capacity.
	leftover := s.Capacity.Sub(granted).ClampNonNegative()
	var deficitTotal resources.Vector
	deficits := s.scratch.deficits[:n]
	for i, h := range s.Hosted {
		deficits[i] = resources.Zero
		if hc, ok := h.Controller.(HardCapper); ok && hc.HardCapped() {
			continue
		}
		deficits[i] = demands[i].Sub(grants[i]).ClampNonNegative()
		deficitTotal = deficitTotal.Add(deficits[i])
	}
	var share resources.Vector
	for d := range share {
		if deficitTotal[d] > 0 {
			share[d] = leftover[d] / deficitTotal[d]
			if share[d] > 1 {
				share[d] = 1
			}
		}
	}
	granted = resources.Zero
	finished := false
	for i, h := range s.Hosted {
		extra := deficits[i]
		for d := range extra {
			extra[d] *= share[d]
		}
		g := grants[i].Add(extra)
		h.Granted = g
		h.lastGrant = h.Request.Max(g) // the game could use up to this
		granted = granted.Add(g)
		h.Session.Step(g)
		finished = finished || h.Session.Done()
	}
	s.peakUtil = s.peakUtil.Max(granted)
	s.utilTotal = granted
	if finished {
		s.sweep(now)
	}
}

// sweep moves completed sessions into records; both tick paths call it, and
// only on a second some session finished (otherwise it would change nothing).
//
//cocg:hot
func (s *Server) sweep(now simclock.Seconds) {
	remaining := s.Hosted[:0]
	for _, h := range s.Hosted {
		if h.Session.Done() {
			s.emitRecord(h, now)
		} else {
			remaining = append(remaining, h)
		}
	}
	s.rev++
	s.Hosted = remaining
	// A departed grant cannot be subtracted bitwise; restart the folds.
	s.recomputeTotals()
}

// emitRecord routes one completed session's record to the sink, or retains
// it in Records when the server has no sink. Separate from tickAt so the
// append's grow path stays out of the hot range.
func (s *Server) emitRecord(h *Hosted, now simclock.Seconds) {
	r := Record{
		Game:        h.Spec.Name,
		Arrived:     h.Arrived,
		Finished:    now,
		Elapsed:     h.Session.Elapsed(),
		ExecSeconds: h.Session.ExecSeconds(),
		AvgFPS:      h.Session.AvgFPS(),
		FPSRatio:    h.Session.FPSRatio(),
		GoodFPSFrac: h.Session.GoodFPSFraction(),
		Degraded:    h.Session.DegradedFraction(),
		LoadStolen:  h.Session.LoadExtended(),
		P5FPS:       h.Session.FPSPercentile(5),
	}
	if s.Sink != nil {
		s.Sink.ConsumeRecord(s.ID, r)
		return
	}
	s.Records = append(s.Records, r)
}

// Throughput computes Eq. 2 over completed records: T = Σ N_i · S_i, with
// N_i the number of completed runs of game i and S_i the game's duration.
// When ref provides a game's reference duration (its unimpeded session
// length), that is used as S_i — a lag-stretched run must not count for
// more; otherwise the mean observed duration stands in.
func Throughput(records []Record, ref map[string]float64) float64 {
	count := map[string]int{}
	dur := map[string]float64{}
	for _, r := range records {
		count[r.Game]++
		dur[r.Game] += float64(r.Elapsed)
	}
	// Accumulate in sorted game order so the floating-point sum never
	// depends on map iteration order.
	games := make([]string, 0, len(count))
	for g := range count {
		games = append(games, g)
	}
	sort.Strings(games)
	var t float64
	for _, g := range games {
		n := count[g]
		s := dur[g] / float64(n)
		if refDur, ok := ref[g]; ok && refDur > 0 {
			s = refDur
		}
		t += float64(n) * s
	}
	return t
}

// QoSSummary aggregates QoS over records.
type QoSSummary struct {
	Sessions     int
	MeanFPSRatio float64
	MeanGoodFPS  float64
	MeanDegraded float64
	// ViolatedFrac is the fraction of sessions degraded for more than 5 %
	// of their execution time — the operator tolerance of Section IV-D.
	ViolatedFrac float64
}

// Summarize computes the QoS summary of a record set.
func Summarize(records []Record) QoSSummary {
	var out QoSSummary
	out.Sessions = len(records)
	if out.Sessions == 0 {
		return out
	}
	viol := 0
	for _, r := range records {
		out.MeanFPSRatio += r.FPSRatio
		out.MeanGoodFPS += r.GoodFPSFrac
		out.MeanDegraded += r.Degraded
		if r.Degraded > 0.05 {
			viol++
		}
	}
	n := float64(out.Sessions)
	out.MeanFPSRatio /= n
	out.MeanGoodFPS /= n
	out.MeanDegraded /= n
	out.ViolatedFrac = float64(viol) / n
	return out
}

// String renders the summary on one line.
func (q QoSSummary) String() string {
	return fmt.Sprintf("sessions=%d fps=%.1f%% good=%.1f%% degraded=%.1f%% violated=%.1f%%",
		q.Sessions, 100*q.MeanFPSRatio, 100*q.MeanGoodFPS, 100*q.MeanDegraded, 100*q.ViolatedFrac)
}
