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

	// Jobs is read by nothing: a cluster advances on one goroutine.
	//
	// Deprecated: kept only while bench/cocgbench still assigns it.
	Jobs int

	// FailedPlacements counts arrivals that won a server but could not be
	// materialized (malformed script index, controller construction error).
	// Such arrivals leave the queue — retrying one would fail identically
	// every round — but are counted and logged rather than silently dropped.
	FailedPlacements int

	// Logf, when non-nil, receives diagnostic messages (dropped arrivals).
	Logf func(format string, args ...any)

	// round is the current placement round's scoreboard.
	round scoreboard
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

// ScratchScorer was a Policy refinement scoring through caller-owned
// scratch: ScoreScratch returned exactly what Score would.
//
// Deprecated: nothing implements it and the cluster never calls it; the
// declaration stays only while bench/cocgbench still names it.
type ScratchScorer interface {
	Policy
	NewScratch() any
	ScoreScratch(srv *Server, spec *gamesim.GameSpec, habit int64, scratch any) (score float64, ok bool)
}

// PlacementPreparer was a Policy refinement run before each placement scan.
//
// Deprecated: nothing implements it and the cluster never calls it; the
// declaration stays only while bench/cocgbench still names it.
type PlacementPreparer interface {
	PreparePlacement(servers []*Server)
}

// FleetLoad is the per-cluster summary the coordinator tier and the
// (upcoming) autoscaler consume: the mean predicted headroom routing scores
// on, plus — because one scalar cannot say *which* game the demand belongs to
// or how many machines sit empty — predicted demand broken out per game and
// the count of idle servers. Slice fields follow a split ownership: Games is
// owned by the summarizer (a stable, sorted, immutable list — callers must
// not mutate it), while GameDemand is caller storage the summarizer
// overwrites in place, so a steady-state poll allocates nothing.
type FleetLoad struct {
	// Servers is the total server count the summary covers.
	Servers int
	// Idle counts servers hosting zero sessions — the pool a scale-down
	// pass could retire without migrating anything.
	Idle int
	// MeanHeadroom is the mean predicted free-capacity fraction over all
	// servers, in [0,1] (1 = idle); 0 for an empty cluster.
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
// demand-timeline rescan — so callers may poll continuously. Like Score it is
// a serial entry point: callers must not invoke it concurrently with other
// policy methods on the same instance.
type FleetSummarizer interface {
	FleetLoadInto(servers []*Server, out *FleetLoad) bool
}

// PickServer returns the server the policy would place the arrival on right
// now — the highest-scoring admitting one, as Place would pick — without
// placing it; nil when no server admits it. It is a one-arrival placement
// round (every server scored once), the dry-run entry point the fleet
// benchmarks and placement property tests drive. Scoring may refill a
// policy's per-server state (Server.PolicyState), never the cluster's
// servers.
func (c *Cluster) PickServer(a Arrival) *Server {
	c.round.begin()
	if i := c.pick(a.Spec); i >= 0 {
		return c.Servers[i]
	}
	return nil
}

// Place runs the distributor for one arrival and hosts it: a one-arrival
// placement round picks the server, then the session, its controller and
// Server.Add. It counts Placements and FailedPlacements. It returns nil, nil,
// nil when no server admits the arrival; an arrival that won a server but
// could not be materialized (malformed script index, controller construction
// error) returns that server with the error. The simulation queue and the
// streaming front end both place through it.
func (c *Cluster) Place(a Arrival) (*Server, *Hosted, error) {
	c.round.begin()
	return c.place(a)
}

// place is Place inside the current round: the round's scoreboard picks the
// server, and a session hosted here is logged so the round's boards re-score
// that server before their next pick.
func (c *Cluster) place(a Arrival) (*Server, *Hosted, error) {
	i := c.pick(a.Spec)
	if i < 0 {
		return nil, nil, nil
	}
	srv := c.Servers[i]
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
	c.round.hosted = append(c.round.hosted, i)
	return srv, srv.Add(a.Spec, sess, ctl), nil
}

// tryPlace is one placement round: it attempts to place pending arrivals
// FIFO, each offered to every admitting server through the round's
// scoreboard. An arrival that wins a server leaves the queue even when it
// cannot be materialized — retrying it would fail identically. With
// StarveLimit set, an arrival that has waited past it blocks younger arrivals
// until it lands, so a heavy game is never starved by a stream of small ones.
func (c *Cluster) tryPlace() {
	c.round.begin()
	remaining := c.Pending[:0]
	blocked := false
	for _, a := range c.Pending {
		if blocked {
			remaining = append(remaining, a)
			continue
		}
		if srv, _, _ := c.place(a); srv != nil {
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

// SetSink installs a completed-session record sink on every server.
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

// scoreboard holds one placement round's verdicts: one board per game offered
// in the round, each indexed by server position. Inside a round the clock
// does not move and no server ticks, so Server.Add is the only thing that
// changes a server, and Policy.Score is a function of the server and the
// game. A board filled by one scan therefore stays exact except at the
// servers that hosted a session since, and those are re-scored before the
// board's next pick. An arrival that wins a server but cannot be materialized
// changes nothing, so the next arrival of its game wins the same server, as a
// fresh scan would. The slices are reused across rounds, so a warm round that
// places nothing allocates nothing.
type scoreboard struct {
	boards []board
	// hosted lists, in order, the positions of the servers that hosted a
	// session this round.
	hosted []int
}

// board is one game's verdicts over the fleet, indexed by server position.
type board struct {
	spec  *gamesim.GameSpec
	score []float64
	ok    []bool
	// seen is the prefix of scoreboard.hosted the board is up to date with.
	seen int
}

// begin opens a new round: every verdict of the last one is stale.
func (r *scoreboard) begin() {
	r.boards = r.boards[:0]
	r.hosted = r.hosted[:0]
}

// find returns the round's board for spec, nil when the round has none yet.
func (r *scoreboard) find(spec *gamesim.GameSpec) *board {
	for i := range r.boards {
		if r.boards[i].spec == spec {
			return &r.boards[i]
		}
	}
	return nil
}

// open adds an empty board for spec over n servers, reusing the storage a
// board of an earlier round left behind.
func (r *scoreboard) open(spec *gamesim.GameSpec, n int) *board {
	k := len(r.boards)
	if k == cap(r.boards) || cap(r.boards[:k+1][k].score) < n {
		r.grow(n)
	}
	r.boards = r.boards[:k+1]
	b := &r.boards[k]
	b.spec, b.score, b.ok, b.seen = spec, b.score[:n], b.ok[:n], len(r.hosted)
	return b
}

// grow makes room for one more board of n servers. It runs only when a round
// offers more games, or the fleet has more servers, than any round before (a
// cold event, never steady state); noinline keeps its allocations from being
// attributed into the //cocg:hot pick by inlining.
//
//go:noinline
func (r *scoreboard) grow(n int) {
	k := len(r.boards)
	if k == cap(r.boards) {
		r.boards = append(r.boards, board{})[:k]
	}
	if b := &r.boards[:k+1][k]; cap(b.score) < n {
		b.score, b.ok = make([]float64, n), make([]bool, n)
	}
}

// pick returns the position of the server the round places an arrival of
// spec on — the admitting server with the highest score, exact ties going
// to the earliest — or -1 when none admits it. The round's first
// arrival of a game fills that game's board with one scan; a later one
// re-scores only the servers that hosted a session since the board was last
// brought up to date. The argmax is one pass in server order with a strict >.
//
//cocg:hot
func (c *Cluster) pick(spec *gamesim.GameSpec) int {
	r := &c.round
	b := r.find(spec)
	if b == nil {
		b = r.open(spec, len(c.Servers))
		for i, srv := range c.Servers {
			b.score[i], b.ok[i] = c.Policy.Score(srv, spec)
		}
	} else {
		for _, i := range r.hosted[b.seen:] {
			b.score[i], b.ok[i] = c.Policy.Score(c.Servers[i], spec)
		}
		b.seen = len(r.hosted)
	}
	best := -1
	for i, ok := range b.ok {
		if ok && (best < 0 || b.score[i] > b.score[best]) {
			best = i
		}
	}
	return best
}
