package platform

import (
	"cocg/internal/gamesim"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Arrival is one game request waiting to be placed.
type Arrival struct {
	Spec        *gamesim.GameSpec
	Script      int
	Habit       int64
	SessionSeed int64
	// Submitted is stamped by the cluster when the arrival is enqueued.
	Submitted simclock.Seconds
}

// Cluster runs a set of servers under one policy with a FIFO queue of
// pending arrivals: the paper's setting where "the selected game will
// continuously run requests until the distributor passes the request".
type Cluster struct {
	Servers []*Server
	Policy  Policy
	Clock   *simclock.Clock
	Pending []Arrival

	// Placements counts successful admissions, RejectedTicks the admission
	// attempts that found no server.
	Placements    int
	RejectedTicks int

	// StarveLimit, when positive, makes an arrival that has waited this
	// long block younger arrivals until it lands (anti-starvation). Zero
	// reproduces the paper's setting: every pending request keeps retrying
	// independently and the distributor places whatever fits.
	StarveLimit simclock.Seconds

	// Jobs bounds the goroutines TickSpan fans the per-server ticks over when
	// the policy is a ConcurrentTicker. Values <= 1 run serially; every value
	// yields bit-identical results, because the fan-out decomposes into fixed
	// chunks over independent per-server state. Placement is always serial.
	Jobs int

	// FailedPlacements counts arrivals that won a server but could not be
	// materialized (malformed script index, controller construction error).
	// Such arrivals leave the queue — retrying one would fail identically
	// every round — but are counted and logged rather than silently dropped.
	FailedPlacements int

	// Logf, when non-nil, receives diagnostic messages (dropped arrivals).
	Logf func(format string, args ...any)
}

// NewCluster builds a cluster of n full-capacity servers under the policy.
func NewCluster(n int, policy Policy) *Cluster {
	c := &Cluster{Policy: policy, Clock: &simclock.Clock{}}
	for i := 0; i < n; i++ {
		c.Servers = append(c.Servers, NewServer(i, resources.FullServer, c.Clock))
	}
	return c
}

// Submit enqueues an arrival.
func (c *Cluster) Submit(a Arrival) {
	a.Submitted = c.Clock.Now()
	c.Pending = append(c.Pending, a)
}

// Scorer is an optional Policy refinement: when implemented, the cluster
// places each arrival on the admitting server with the highest score instead
// of the first that fits — CoCG scores by predicted complementarity.
type Scorer interface {
	Score(srv *Server, spec *gamesim.GameSpec, habit int64) (score float64, ok bool)
}

// ScratchScorer is an optional Scorer refinement for policies whose scoring
// needs working buffers: a caller scanning the fleet itself brings its own
// scratch (created by NewScratch, reused across rounds). ScoreScratch must
// return exactly what Score would — scratch is storage, never state.
// The cluster's own scan calls Score; bench/cocgbench's scoreProbe is the only
// remaining caller, and the interface goes when bench/ is next editable.
type ScratchScorer interface {
	Scorer
	// NewScratch returns a fresh scratch for one scoring goroutine.
	NewScratch() any
	// ScoreScratch is Score drawing all temporary storage from scratch.
	ScoreScratch(srv *Server, spec *gamesim.GameSpec, habit int64, scratch any) (score float64, ok bool)
}

// PlacementPreparer is an optional Policy refinement: PreparePlacement runs
// once before each scoring scan with the server list the scan will walk — the
// CoCG distributor files its forecast caches by list position here, so the
// scan finds each without hashing, and evicts those of departed servers.
type PlacementPreparer interface {
	PreparePlacement(servers []*Server)
}

// FleetLoad is the per-cluster summary the coordinator tier and the
// (upcoming) autoscaler consume: the mean predicted headroom routing scores
// on, plus — because one scalar cannot say *which* game the demand belongs to
// or how many machines could drain — predicted demand broken out per game and
// counts of idle and draining servers. Slice fields follow a split
// ownership: Games is owned by the summarizer (a stable, sorted, immutable
// list — callers must not mutate it), while GameDemand is caller storage the
// summarizer overwrites in place, so a steady-state poll allocates nothing.
type FleetLoad struct {
	// Servers is the total server count the summary covers.
	Servers int
	// Active counts non-draining servers (the placement rotation);
	// MeanHeadroom averages over exactly these.
	Active int
	// Idle counts active servers hosting zero sessions — the pool a
	// scale-down pass can drain without migrating anything.
	Idle int
	// Draining counts servers out of rotation finishing their sessions.
	Draining int
	// MeanHeadroom is the mean predicted free-capacity fraction over active
	// servers, in [0,1] (1 = idle); 0 when no server is active.
	MeanHeadroom float64
	// Games lists the policy's known game names in sorted order; GameDemand
	// is parallel to it: the fleet's predicted demand for that game over the
	// forecast horizon, in units of one server's capacity (a value of 2.0
	// means "two servers' worth of this game").
	Games      []string
	GameDemand []float64
}

// FleetSummarizer is an optional Policy refinement for the multi-cluster
// coordinator tier: FleetLoadInto fills the policy's forward-looking cluster
// summary into caller storage. Policies without forward-looking models do not
// implement it (or return false) and the caller falls back to instantaneous
// utilization. Implementations are expected to be incremental — a poll over
// an unchanged fleet should cost per-server revision probes, not a full
// demand-timeline rescan — so callers may poll continuously. Like Admit and
// Score it is a serial entry point: callers must not invoke it concurrently
// with other policy methods on the same instance.
type FleetSummarizer interface {
	FleetLoadInto(servers []*Server, out *FleetLoad) bool
}

// pickServer chooses the server for an arrival: best score under a Scorer
// policy, else first fit. The scan is one serial pass in server order with a
// strict >, so exact score ties go to the lowest server ID.
func (c *Cluster) pickServer(a Arrival) *Server {
	sc, isScorer := c.Policy.(Scorer)
	if !isScorer {
		for _, srv := range c.Servers {
			if srv.Draining {
				continue
			}
			if c.Policy.Admit(srv, a.Spec, a.Habit) {
				return srv
			}
		}
		return nil
	}

	if pp, ok := c.Policy.(PlacementPreparer); ok {
		pp.PreparePlacement(c.Servers)
	}
	var best *Server
	bestScore := 0.0
	for _, srv := range c.Servers {
		if srv.Draining {
			continue
		}
		if s, ok := sc.Score(srv, a.Spec, a.Habit); ok && (best == nil || s > bestScore) {
			best, bestScore = srv, s
		}
	}
	return best
}

// PickServer returns the server the policy would place the arrival on right
// now, without placing it — nil when no server admits it. It is the dry-run
// entry point the fleet benchmarks and placement property tests drive.
func (c *Cluster) PickServer(a Arrival) *Server {
	return c.pickServer(a)
}

// Drain marks a server as draining; returns false for an unknown ID.
func (c *Cluster) Drain(serverID int) bool {
	for _, srv := range c.Servers {
		if srv.ID == serverID {
			srv.Draining = true
			return true
		}
	}
	return false
}

// Undrain returns a drained server to rotation.
func (c *Cluster) Undrain(serverID int) bool {
	for _, srv := range c.Servers {
		if srv.ID == serverID {
			srv.Draining = false
			return true
		}
	}
	return false
}

// Place runs the distributor for one arrival and hosts it: pickServer, then
// the session, its controller and Server.Add. It counts Placements and
// FailedPlacements. It returns nil, nil, nil when no server admits the
// arrival; an arrival that won a server but could not be materialized
// (malformed script index, controller construction error) returns that
// server with the error. The simulation queue and the streaming front end
// both place through it.
func (c *Cluster) Place(a Arrival) (*Server, *Hosted, error) {
	srv := c.pickServer(a)
	if srv == nil {
		return nil, nil, nil
	}
	sess, err := gamesim.NewPlayerSession(a.Spec, a.Script, a.Habit, a.SessionSeed)
	if err != nil {
		c.FailedPlacements++
		c.logf("platform: dropping arrival %s (script %d): %v", a.Spec.Name, a.Script, err)
		return srv, nil, err
	}
	ctl, err := c.Policy.NewController(a.Spec, a.Habit)
	if err != nil {
		c.FailedPlacements++
		c.logf("platform: dropping arrival %s: no controller: %v", a.Spec.Name, err)
		return srv, nil, err
	}
	c.Placements++
	return srv, srv.Add(a.Spec, sess, ctl), nil
}

// tryPlace attempts to place pending arrivals FIFO; each arrival is offered
// to every server once per attempt round. An arrival that wins a server
// leaves the queue even when it cannot be materialized — retrying it would
// fail identically. With StarveLimit set, an arrival that has waited past it
// blocks younger arrivals until it lands, so a heavy game is never starved
// by a stream of small ones.
func (c *Cluster) tryPlace() {
	remaining := c.Pending[:0]
	blocked := false
	for _, a := range c.Pending {
		if blocked {
			remaining = append(remaining, a)
			continue
		}
		if srv, _, _ := c.Place(a); srv != nil {
			continue
		}
		c.RejectedTicks++
		remaining = append(remaining, a)
		if c.StarveLimit > 0 && c.Clock.Now()-a.Submitted > c.StarveLimit {
			blocked = true
		}
	}
	c.Pending = remaining
}

// Tick advances the whole cluster by one virtual second; placement attempts
// run on frame boundaries (the paper's 5-second decision cadence). Server
// ticks fan out over Jobs goroutines when the policy is a ConcurrentTicker —
// servers are independent within a tick — and the fan-out is bit-identical
// to the serial scan at every worker count.
func (c *Cluster) Tick() {
	if simclock.IsFrameBoundary(c.Clock.Now()) {
		c.tryPlace()
	}
	c.TickSpan(1)
}

// Run advances the cluster for the given duration.
func (c *Cluster) Run(d simclock.Seconds) {
	for i := simclock.Seconds(0); i < d; i++ {
		c.Tick()
	}
}

// logf forwards to Logf when set.
func (c *Cluster) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Records returns all completed-session records across servers, sized in one
// counting pass so the result is built with exactly one allocation.
func (c *Cluster) Records() []Record {
	n := 0
	for _, srv := range c.Servers {
		n += len(srv.Records)
	}
	out := make([]Record, 0, n)
	for _, srv := range c.Servers {
		out = append(out, srv.Records...)
	}
	return out
}

// SetSink installs a completed-session record sink on every server. The sink
// must be safe for concurrent calls when Jobs > 1 and the policy ticks
// concurrently.
func (c *Cluster) SetSink(sink RecordSink) {
	for _, srv := range c.Servers {
		srv.Sink = sink
	}
}

// RunningSessions counts sessions currently hosted anywhere.
func (c *Cluster) RunningSessions() int {
	n := 0
	for _, srv := range c.Servers {
		n += srv.NumHosted()
	}
	return n
}
