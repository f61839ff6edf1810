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
	// long block younger arrivals until it lands (anti-starvation).
	// NewCluster sets starveLimit. Zero turns the block off: every pending
	// request keeps retrying independently and the distributor places
	// whatever fits.
	StarveLimit simclock.Seconds

	// Jobs is read by nothing: a cluster advances on one goroutine.
	//
	// Deprecated: kept only while bench/cocgbench still assigns it.
	Jobs int

	// FailedPlacements counts arrivals that won a server but could not be
	// materialized (malformed script index, controller construction error).
	// Such arrivals leave the queue — retrying one would fail identically
	// every round — but are counted rather than silently dropped.
	FailedPlacements int

	// board holds the placement verdicts of every game offered so far.
	board scoreboard
}

// starveLimit is the five-minute wait after which an arrival blocks younger
// ones: the setting every experiment and program runs with.
const starveLimit = 5 * simclock.Minute

// NewCluster builds a cluster of n full-capacity servers under the policy,
// with StarveLimit set to starveLimit.
func NewCluster(n int, policy Policy) *Cluster {
	c := &Cluster{Policy: policy, Clock: &simclock.Clock{}, StarveLimit: starveLimit}
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
// — predicted demand broken out per game. Slice fields follow a split
// ownership: Games is owned by the summarizer (a stable, sorted, immutable
// list — callers must not mutate it), while GameDemand is caller storage the
// summarizer overwrites in place, so a steady-state poll allocates nothing.
type FleetLoad struct {
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
// implement it, and the caller falls back to instantaneous utilization. Implementations are expected to be incremental — a poll over
// an unchanged fleet should cost per-server revision probes, not a full
// demand-timeline rescan — so callers may poll continuously. Like Score it is
// a serial entry point: callers must not invoke it concurrently with other
// policy methods on the same instance.
type FleetSummarizer interface {
	FleetLoadInto(servers []*Server, out *FleetLoad)
}

// PickServer returns the server the policy would place the arrival on right
// now — the highest-scoring admitting one, as Place would pick — without
// placing it; nil when no server admits it. It is the dry-run entry point
// the fleet benchmarks and placement property tests drive. Scoring may
// refill a policy's per-server state (Server.PolicyState), never the
// cluster's servers.
func (c *Cluster) PickServer(a Arrival) *Server {
	if i := c.pick(a.Spec); i >= 0 {
		return c.Servers[i]
	}
	return nil
}

// Place runs the distributor for one arrival and hosts it: PickServer picks
// the server, then the session, its controller and Server.Add. It counts
// Placements and FailedPlacements. It returns nil, nil, nil when no server
// admits the arrival; an arrival that won a server but could not be
// materialized (malformed script index, controller construction error)
// returns that server with the error. The simulation queue and the streaming
// front end both place through it.
func (c *Cluster) Place(a Arrival) (*Server, *Hosted, error) {
	srv := c.PickServer(a)
	if srv == nil {
		return nil, nil, nil
	}
	sess, err := gamesim.NewPlayerSession(a.Spec, a.Script, a.Habit, a.SessionSeed)
	if err != nil {
		c.FailedPlacements++
		return srv, nil, err
	}
	ctl, err := c.Policy.NewController(a.Spec, a.Habit)
	if err != nil {
		c.FailedPlacements++
		return srv, nil, err
	}
	c.Placements++
	return srv, srv.Add(a.Spec, sess, ctl), nil
}

// tryPlace is one placement round: it attempts to place pending arrivals
// FIFO, each offered to every admitting server through the cluster's
// scoreboard. An arrival that wins a server leaves the queue even when it
// cannot be materialized — retrying it would fail identically. With
// StarveLimit set, an arrival that has waited past it blocks younger arrivals
// until it lands, so a heavy game is never starved by a stream of small ones.
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

// scoreboard holds the cluster's placement verdicts for as long as the
// cluster lives: one board per game name offered, each indexed by server
// position. Policy.Score is a function of the game's name and the server's
// Stamp, so a verdict stays exact until that server's stamp moves (an
// admission, a departure, a non-empty tick), and pick re-scores exactly the
// servers whose stamp moved. An idle server's verdicts therefore outlive the
// placement round, and a round over an unchanged fleet calls Score zero times
// and allocates nothing. An arrival that wins a server but cannot be
// materialized changes nothing, so the next arrival of its game wins the same
// server, as a fresh scan would.
type scoreboard []board

// board is one game's verdicts over the fleet, indexed by server position.
type board struct {
	game     string
	verdicts []verdict
}

// verdict is one Score result and the stamp of the server it was taken on;
// a verdict under the zero Stamp was never taken.
type verdict struct {
	stamp Stamp
	score float64
	ok    bool
}

// find returns the board of the game, nil when the game was never offered.
func (r scoreboard) find(game string) *board {
	for i := range r {
		if r[i].game == game {
			return &r[i]
		}
	}
	return nil
}

// grow returns the game's board with a verdict for each of n servers,
// opening the board on the game's first offer. It runs only then or when the
// fleet outgrows the board (a cold event, never steady state); noinline keeps
// its allocations from being attributed into the //cocg:hot pick by inlining.
//
//go:noinline
func (r *scoreboard) grow(game string, n int) *board {
	b := r.find(game)
	if b == nil {
		*r = append(*r, board{game: game})
		b = &(*r)[len(*r)-1]
	}
	b.verdicts = append(b.verdicts, make([]verdict, n-len(b.verdicts))...)
	return b
}

// pick returns the position of the server an arrival of spec is placed on —
// the admitting server with the highest score, exact ties going to the
// earliest — or -1 when none admits it. One pass in server order re-scores
// each server whose stamp moved since its verdict was taken and keeps the
// argmax with a strict >.
//
//cocg:hot
func (c *Cluster) pick(spec *gamesim.GameSpec) int {
	b := c.board.find(spec.Name)
	if b == nil || len(b.verdicts) < len(c.Servers) {
		b = c.board.grow(spec.Name, len(c.Servers))
	}
	best := -1
	for i, srv := range c.Servers {
		v := &b.verdicts[i]
		if st := srv.Stamp(); v.stamp != st {
			v.stamp = st
			v.score, v.ok = c.Policy.Score(srv, spec)
		}
		if v.ok && (best < 0 || v.score > b.verdicts[best].score) {
			best = i
		}
	}
	return best
}
