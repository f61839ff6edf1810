// Package coordinator is the fleet tier above a single cluster: an
// overlord-style control plane that fronts N cocg-server clusters
// (regions/zones), routes every arriving session to the cluster with the
// best predicted-headroom/latency trade-off, and fails sessions over when a
// region goes down — the structural unlock for serving traffic no single
// cluster can hold.
//
// The coordinator speaks the internal/streaming protocol on both sides and
// adds no framing of its own. Per session it relays the JSON Hello/Accept
// handshake message-by-message (stamping Accept.Cluster so the client learns
// where it landed), then collapses into a raw byte pipe — the session's
// binary frames pass through untouched, so the coordinator adds one hop but
// zero re-encoding to the hot path.
// Cluster load is pulled over the same wire: a background prober per cluster
// holds a summary feed (MsgSummaryReq/MsgSummary, protocol-negotiated like
// any session) and refreshes a ClusterSummary every ProbeEvery; consecutive
// probe failures mark the cluster down until a probe lands again.
//
// Routing is deterministic: the preference order is produced by a serial
// strict-comparison sort with lowest-ID tie-break, so a frozen fleet
// snapshot always yields the same decision. See docs/FLEET.md for the
// operator view: routing policy, failover semantics, and the fleet metrics
// reference.
package coordinator

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cocg/internal/gamesim"
	"cocg/internal/streaming"
)

// Config shapes a coordinator.
type Config struct {
	// Clusters lists the fleet, in ID order. At least one is required.
	Clusters []ClusterSpec
	// Weights tunes the routing score; the zero value uses the defaults.
	Weights RouteWeights
	// ProbeEvery is the summary-feed refresh period; <=0 means 500 ms.
	ProbeEvery time.Duration
	// DownAfter is how many consecutive probe failures mark a cluster
	// unhealthy; <=0 means 2. A single successful probe restores it.
	DownAfter int
	// Logf, when non-nil, receives diagnostic messages (state transitions,
	// failovers).
	Logf func(format string, args ...any)
}

const (
	// dialTimeout bounds cluster dials (probes and session attempts).
	dialTimeout = 2 * time.Second
	// probeTimeout bounds one probe round trip.
	probeTimeout = 2 * time.Second
)

// Coordinator is a running control plane: one TCP listener for sessions,
// one health prober per cluster, and the routing state in between.
type Coordinator struct {
	cfg     Config
	ln      net.Listener
	members []*member

	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// connsMu guards conns: every accepted client connection until its
	// handler returns and every dialed backend connection until it is
	// closed, so Close can force each one down.
	connsMu sync.Mutex
	conns   map[*streaming.Conn]struct{}
	// sessions counts the spliced sessions.
	sessions atomic.Int64

	// Fleet counters (see MetricsHandler).
	decisions  atomic.Uint64 // routing decisions taken
	admissions atomic.Uint64 // sessions accepted somewhere
	rejections atomic.Uint64 // sessions no cluster would take
	failovers  atomic.Uint64 // attempts abandoned mid-admission for the next cluster
	markedDown atomic.Uint64 // health transitions to down
}

// Serve starts a coordinator listening for sessions on addr.
func Serve(addr string, cfg Config) (*Coordinator, error) {
	if len(cfg.Clusters) == 0 {
		return nil, errors.New("coordinator: Config.Clusters is required")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 500 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:   cfg,
		ln:    ln,
		done:  make(chan struct{}),
		conns: make(map[*streaming.Conn]struct{}),
	}
	for i, cs := range cfg.Clusters {
		name := cs.Name
		if name == "" {
			name = cs.Addr
		}
		co.members = append(co.members, &member{
			id: i, name: name, addr: cs.Addr, lat: cs.LatencyMS,
		})
	}
	co.wg.Add(1 + len(co.members))
	for _, m := range co.members {
		go co.probeLoop(m)
	}
	go co.acceptLoop()
	return co, nil
}

// Addr returns the session listening address.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Close stops the coordinator: the listener, every prober, and every client
// and backend connection — mid-handshake, mid-admission or spliced — are
// down when it returns, and no goroutine the coordinator started survives it.
func (co *Coordinator) Close() error {
	if !co.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(co.done)
	err := co.ln.Close()
	for _, m := range co.members {
		m.closeFeed() // unblock probers waiting in Recv
	}
	co.connsMu.Lock()
	for c := range co.conns {
		_ = c.Close() // best-effort disconnect during teardown
	}
	co.connsMu.Unlock()
	co.wg.Wait()
	return err
}

// track enters a connection into the set Close tears down. After Close it
// closes the connection instead and returns false.
func (co *Coordinator) track(c *streaming.Conn) bool {
	co.connsMu.Lock()
	defer co.connsMu.Unlock()
	if co.closed.Load() {
		_ = c.Close()
		return false
	}
	co.conns[c] = struct{}{}
	return true
}

// untrack closes a connection and drops it from the set.
func (co *Coordinator) untrack(c *streaming.Conn) {
	co.connsMu.Lock()
	delete(co.conns, c)
	co.connsMu.Unlock()
	_ = c.Close()
}

// acceptLoop admits client connections.
func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return // listener closed
		}
		client := streaming.NewConn(c)
		if !co.track(client) {
			continue
		}
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			defer co.untrack(client)
			co.handle(client)
		}()
	}
}

// rank produces the routing preference order for a game against the frozen
// fleet state: every member's view is snapshotted first, then scored — the
// decision is a pure function of that snapshot.
func (co *Coordinator) rank(spec *gamesim.GameSpec) []int {
	views := make([]ClusterView, len(co.members))
	for i, m := range co.members {
		views[i] = m.view()
	}
	return Rank(views, spec, co.cfg.Weights)
}

// handle runs one client session end to end: read the Hello, walk the
// routing preference order admitting against each cluster in turn
// (transport failures and rejections fail over to the next), then splice
// the two connections into a raw byte pipe for the session body. The caller
// closes the client connection when handle returns.
func (co *Coordinator) handle(client *streaming.Conn) {
	env, err := client.Recv()
	if err != nil || env.Type != streaming.MsgHello {
		return
	}
	// The spec only tunes the latency weight; unknown games route with
	// sensitivity 1 and are rejected by the clusters themselves.
	spec, _ := gamesim.GameByName(env.Hello.Game)

	order := co.rank(spec)
	co.decisions.Add(1)
	reason := "no healthy cluster"
	for attempt, id := range order {
		m := co.members[id]
		if attempt > 0 {
			co.failovers.Add(1)
			co.logf("coordinator: failing %s session over to cluster %s", env.Hello.Game, m.name)
		}
		m.routed.Add(1)
		backend, admitted, why := co.admitOn(m, env)
		if backend == nil {
			reason = why
			continue
		}
		admitted.Accept.Cluster = m.name
		m.admitted.Add(1)
		co.admissions.Add(1)
		if client.Send(admitted) == nil {
			co.pipe(client, backend)
		}
		co.untrack(backend)
		return
	}
	co.rejections.Add(1)
	_ = client.Send(&streaming.Envelope{Type: streaming.MsgReject,
		Reject: &streaming.Reject{Reason: reason}}) // best-effort: the client may already be gone
}

// admitOn offers the Hello to one cluster and returns the open, tracked
// backend connection plus the Accept on success; the caller untracks it.
// Transport errors count against the member's health (a refused dial is the
// fastest down-detector there is); an explicit Reject does not — a full
// cluster is healthy, just busy.
func (co *Coordinator) admitOn(m *member, hello *streaming.Envelope) (*streaming.Conn, *streaming.Envelope, string) {
	nc, err := net.DialTimeout("tcp", m.addr, dialTimeout)
	if err != nil {
		m.transport.Add(1)
		co.probeFailed(m, err)
		return nil, nil, err.Error()
	}
	backend := streaming.NewConn(nc)
	if !co.track(backend) {
		return nil, nil, "coordinator shutting down"
	}
	var reply *streaming.Envelope
	err = backend.Send(hello)
	if err == nil {
		reply, err = backend.Recv()
	}
	if err != nil {
		co.untrack(backend)
		m.transport.Add(1)
		co.probeFailed(m, err)
		return nil, nil, err.Error()
	}
	switch reply.Type {
	case streaming.MsgAccept:
		return backend, reply, ""
	case streaming.MsgReject:
		co.untrack(backend)
		m.rejected.Add(1)
		return nil, nil, reply.Reject.Reason
	default:
		co.untrack(backend)
		m.transport.Add(1)
		return nil, nil, fmt.Sprintf("unexpected admission reply %q", reply.Type)
	}
}

// pipe splices the two legs of an admitted session into a raw byte relay
// (one goroutine per direction, both tracked for shutdown) and blocks until
// the session ends. Either side closing tears both legs down.
func (co *Coordinator) pipe(client, backend *streaming.Conn) {
	co.sessions.Add(1)
	defer co.sessions.Add(-1)
	downstream := make(chan struct{})
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		defer close(downstream)
		_, _ = backend.RelayTo(client) // session body: server → player
		_ = client.Close()
		_ = backend.Close()
	}()
	_, _ = client.RelayTo(backend) // input events: player → server
	_ = backend.Close()
	_ = client.Close()
	<-downstream
}

// Sessions returns the number of sessions currently proxied.
func (co *Coordinator) Sessions() int { return int(co.sessions.Load()) }

// String describes the coordinator.
func (co *Coordinator) String() string {
	return fmt.Sprintf("cocg coordinator on %s fronting %d clusters", co.Addr(), len(co.members))
}

// logf forwards to Logf when set.
func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}
