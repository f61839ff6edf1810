package streaming

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
)

// ServerConfig shapes a streaming front end.
type ServerConfig struct {
	// System is the trained CoCG deployment serving the games.
	System *core.System
	// Policy selects the co-location scheme; defaults to CoCG.
	Policy core.PolicyKind
	// Servers is the number of backend game servers; <=0 means 2.
	Servers int
	// TickEvery is the real duration of one virtual second; <=0 means
	// 10 ms (a 100x-speed simulation — tests and demos don't wait). The
	// server runs every second it owes on this cadence: a late wake-up
	// catches up back to back, up to two frames at once (see tickLoop).
	TickEvery time.Duration
	// SessionSeed seeds arriving sessions.
	SessionSeed int64
}

// outQueueLen is the per-session outbound queue capacity. When a client
// falls this far behind, frame batches are coalesced and then dropped
// oldest-first (see outQueue) rather than buffered without bound.
const outQueueLen = 64

// Server is the cloud end of Fig. 1: it hosts game sessions on a scheduled
// cluster and streams encoded frames to connected clients.
//
// Concurrency model: one lock, clusterMu, guards the cluster, placement,
// the live-session slice and the connection set; the simulation and the
// delivery walk after it run serially under it on the tick goroutine, which
// takes it once per wake-up however many seconds it catches up. The
// walk pushes each session's frame records to its own bounded queue; one
// writer goroutine per session drains its queue, encodes each batch's frames
// into the one envelope it owns and sends it, outside the lock. Every
// connection is in the set from Accept until its handler returns, so Close
// reaches each one — session, summary feed, or a peer that has not finished
// its handshake.
type Server struct {
	cfg     ServerConfig
	cluster *platform.Cluster
	ln      net.Listener
	// habits is the System's returning-player habit pool per game, built once:
	// a Hello without a habit is given one from its game's pool.
	habits map[string][]int64

	// clusterMu guards the cluster, placement state, the tick walk, live,
	// conns, completed and fleetLoad.
	clusterMu sync.Mutex
	nextID    int64
	nextSeed  int64
	closed    bool

	// live holds the connected sessions; liveSession.idx is each one's
	// position, so removal is an O(1) swap-delete.
	live []*liveSession
	// conns holds every open client connection so Close can force it down.
	conns map[*Conn]struct{}
	// completed is the cluster's record sink: it counts finished sessions,
	// so the backends retain no Records.
	completed completedCount

	done chan struct{}
	wg   sync.WaitGroup

	// Delivery counters (see MetricsHandler).
	framesSent      atomic.Uint64
	framesCoalesced atomic.Uint64
	framesDropped   atomic.Uint64
	summariesServed atomic.Uint64

	// Pacing counters: virtual seconds run, and seconds owed past the
	// catch-up bound that the tick loop skipped.
	ticks        atomic.Uint64
	ticksSkipped atomic.Uint64

	// fleetLoad is the reusable output buffer for the policy's fleet
	// summary; guarded by clusterMu like the cluster itself.
	fleetLoad platform.FleetLoad
	// serverLabels[i] is backend i's ID as label text, formatted by the first
	// snapshot to reach it so no scrape formats one; guarded by clusterMu.
	serverLabels []string
}

// liveSession ties a hosted game to its client connection. idx, seq and
// ended are guarded by clusterMu (the tick walk runs under it); the input
// mirror has its own mutex because the read loop races the walk.
type liveSession struct {
	id     int64
	idx    int
	conn   *Conn
	hosted *platform.Hosted
	seq    int64
	ended  bool

	inMu     sync.Mutex
	inSeq    int64
	inSentAt int64

	out *outQueue
}

// completedCount is a platform.RecordSink that only counts. The cluster
// ticks serially under clusterMu, so a plain counter read under the lock is
// enough.
type completedCount int

// ConsumeRecord implements platform.RecordSink.
func (n *completedCount) ConsumeRecord(int, platform.Record) { *n++ }

// Serve starts a streaming server listening on addr (e.g. "127.0.0.1:0").
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	return serve(addr, cfg, tickSource{now: time.Now})
}

// tickSource wakes the tick loop and tells it the time. A nil wake means a
// TickEvery ticker; tests inject synthetic wake-ups and a synthetic clock.
type tickSource struct {
	wake <-chan time.Time
	now  func() time.Time
}

// serve is Serve with an injected tick source.
func serve(addr string, cfg ServerConfig, src tickSource) (*Server, error) {
	if cfg.System == nil {
		return nil, errors.New("streaming: ServerConfig.System is required")
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 10 * time.Millisecond
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		cluster:  cfg.System.NewCluster(cfg.Servers, cfg.Policy),
		ln:       ln,
		habits:   cfg.System.HabitPools(),
		nextSeed: cfg.SessionSeed,
		conns:    make(map[*Conn]struct{}),
		done:     make(chan struct{}),
	}
	s.cluster.SetSink(&s.completed)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.tickLoop(src, src.now())
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and disconnects all clients. Every goroutine the
// server started — accept loop, tick loop, per-session readers and writers,
// summary feeds and handshakes in progress — has exited when Close returns.
func (s *Server) Close() error {
	s.clusterMu.Lock()
	if s.closed {
		s.clusterMu.Unlock()
		return nil
	}
	s.closed = true
	// Closing a queue unblocks its writer; closing a connection unblocks its
	// reader, whatever it is waiting for, and any in-flight Send.
	for _, ls := range s.live {
		ls.out.close()
	}
	for conn := range s.conns {
		_ = conn.Close() // best-effort disconnect during teardown
	}
	s.clusterMu.Unlock()
	close(s.done)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// acceptLoop admits client connections, entering each into the connection
// set before its handler starts; one that arrives after Close is closed.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn := NewConn(c)
		s.clusterMu.Lock()
		if s.closed {
			s.clusterMu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.clusterMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle runs one client connection: admission and protocol negotiation,
// then the input-reading loop, with a paired writer goroutine draining the
// session's outbound queue. Every refusal — a peer that cannot speak
// ProtoBinary3, an unknown game or script, a full cluster — is a Reject with
// the reason, then a close. The connection leaves the set, closed, when
// handle returns.
func (s *Server) handle(conn *Conn) {
	defer func() {
		s.clusterMu.Lock()
		delete(s.conns, conn)
		s.clusterMu.Unlock()
		_ = conn.Close()
	}()
	env, err := conn.Recv()
	if err != nil {
		return
	}
	if env.Type == MsgSummaryReq {
		s.serveSummaryFeed(conn, env.SummaryReq)
		return
	}
	if env.Type != MsgHello {
		return
	}
	hello := env.Hello
	var ls *liveSession
	var reason string
	if NegotiateProto(hello.Proto, ProtoBinary3) == 0 {
		reason = unsupportedProto(hello.Proto)
	} else if spec, err := gamesim.GameByName(hello.Game); err != nil {
		reason = err.Error()
	} else if hello.Script < 0 || hello.Script >= len(spec.Scripts) {
		reason = "no such script"
	} else {
		ls, reason = s.place(conn, spec, hello)
	}
	if ls == nil {
		_ = conn.Send(&Envelope{Type: MsgReject, Reject: &Reject{Reason: reason}})
		return
	}
	// The Accept went out (in JSON) inside place; switch both directions to
	// the binary framing before any concurrent use of the connection.
	conn.SetProto(ProtoBinary3)

	writerDone := make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(writerDone)
		s.writeLoop(ls)
	}()
	s.readLoop(ls)
	// Reader gone: the client disconnected (normally, after End) or the
	// server is tearing down. Unblock and wait out the writer, then retire
	// the session.
	ls.out.close()
	_ = conn.Close()
	<-writerDone
	s.removeLive(ls)
}

// removeLive swap-deletes a session from the live slice.
func (s *Server) removeLive(ls *liveSession) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	last := len(s.live) - 1
	moved := s.live[last]
	moved.idx = ls.idx
	s.live[ls.idx] = moved
	s.live[last] = nil
	s.live = s.live[:last]
}

// readLoop consumes input batches for RTT echoing, decoding into one reused
// envelope so a chatty client costs no allocations.
func (s *Server) readLoop(ls *liveSession) {
	var env Envelope
	for {
		if err := ls.conn.RecvInto(&env); err != nil {
			return
		}
		if env.Type == MsgInput {
			ls.inMu.Lock()
			ls.inSeq = env.Input.Seq
			ls.inSentAt = env.Input.SentAtMS
			ls.inMu.Unlock()
		}
	}
}

// writeLoop drains the session's outbound queue to the wire. It owns the
// session's one frame-batch envelope: each popped record is assembled into
// it, frames encoded, just before the Send. It exits after delivering the
// End message, on a send error, or when the queue is closed and drained.
func (s *Server) writeLoop(ls *liveSession) {
	batch := FrameBatch{SessionID: ls.id}
	env := Envelope{Type: MsgFrames, Frames: &batch}
	var (
		rec frameRec
		end SessionStat
	)
	for {
		isEnd, ok := ls.out.pop(&rec, &end)
		if !ok {
			return
		}
		if isEnd {
			_ = ls.conn.Send(&Envelope{Type: MsgEnd, End: &end}) // the session is over either way
			return
		}
		rec.assemble(&batch)
		if ls.conn.Send(&env) != nil {
			return
		}
		s.framesSent.Add(1)
	}
}

// place runs the cluster's distributor for an arriving client and hosts the
// session on the server it picks.
func (s *Server) place(conn *Conn, spec *gamesim.GameSpec, hello *Hello) (*liveSession, string) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	if s.closed {
		return nil, "server shutting down"
	}
	habit := hello.Habit
	if habit == 0 {
		if pool := s.habits[spec.Name]; len(pool) > 0 {
			habit = pool[int(s.nextID)%len(pool)]
		} else {
			habit = s.nextSeed + 991
		}
	}
	srv, hosted, err := s.cluster.Place(platform.Arrival{
		Spec: spec, Script: hello.Script, Habit: habit, SessionSeed: s.nextSeed + 1,
	})
	if srv == nil {
		return nil, "no server can host this game right now"
	}
	s.nextSeed++
	if err != nil {
		return nil, err.Error()
	}
	s.nextID++
	ls := &liveSession{
		id:     s.nextID,
		idx:    len(s.live),
		conn:   conn,
		hosted: hosted,
		out:    newOutQueue(outQueueLen),
	}
	s.live = append(s.live, ls)
	// Best-effort: if the accept never lands, the input loop's Recv
	// fails and tears the session down.
	_ = conn.Send(&Envelope{Type: MsgAccept, Accept: &Accept{
		SessionID: ls.id, Server: srv.ID, Game: spec.Name, Proto: ProtoBinary3,
	}})
	return ls, ""
}

// maxCatchUp bounds the virtual seconds one wake-up may run to catch up:
// two frames. Seconds owed beyond it are skipped and counted, so a host that
// cannot keep the cadence falls behind instead of spiralling.
const maxCatchUp = 2 * int64(simclock.FrameLen)

// catchUp is the fixed-timestep arithmetic: at elapsed real time since the
// epoch, with done seconds already run or skipped, the loop owes
// ⌊elapsed/every⌋ − done seconds; it runs up to maxCatchUp of them and
// skips the rest.
func catchUp(elapsed, every time.Duration, done int64) (run, skipped int64) {
	owed := int64(elapsed/every) - done
	if owed <= 0 {
		return 0, 0
	}
	if owed > maxCatchUp {
		return maxCatchUp, owed - maxCatchUp
	}
	return owed, 0
}

// tickLoop paces the simulation at one virtual second per TickEvery from
// epoch. A wake-up that comes late runs every second the loop owes back to
// back, so virtual time keeps the wall clock's pace instead of losing each
// late tick.
func (s *Server) tickLoop(src tickSource, epoch time.Time) {
	defer s.wg.Done()
	wake := src.wake
	if wake == nil {
		ticker := time.NewTicker(s.cfg.TickEvery)
		defer ticker.Stop()
		wake = ticker.C
	}
	var done int64
	for {
		select {
		case <-s.done:
			return
		case <-wake:
			run, skipped := catchUp(src.now().Sub(epoch), s.cfg.TickEvery, done)
			done += run + skipped
			s.ticksSkipped.Add(uint64(skipped))
			s.runTicks(run)
		}
	}
}

// tickOnce runs one virtual second.
func (s *Server) tickOnce() { s.runTicks(1) }

// runTicks runs n virtual seconds under one hold of the cluster lock. Each
// second advances the simulation, then walks the live sessions in place: one
// frame record per session on frame boundaries and an End for every finished
// session.
//
//cocg:hot
func (s *Server) runTicks(n int64) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	if s.closed {
		return
	}
	for i := int64(0); i < n; i++ {
		s.cluster.Tick()
		boundary := simclock.IsFrameBoundary(s.cluster.Clock.Now())
		for _, ls := range s.live {
			s.emitSession(ls, boundary)
		}
	}
	s.ticks.Add(uint64(n))
}

// emitSession delivers one tick's worth of messages to one session: the End
// with final statistics when the game finished, else (on frame boundaries)
// one frame record, pushed under the queue's backpressure policy.
//
//cocg:hot
func (s *Server) emitSession(ls *liveSession, boundary bool) {
	if ls.ended {
		return
	}
	sess := ls.hosted.Session
	if sess.Done() {
		ls.ended = true
		// An End entering a full queue evicts the oldest frame batch; that
		// is a drop the counters must see too.
		if ls.out.pushEnd(SessionStat{
			SessionID:   ls.id,
			DurationSec: int64(sess.Elapsed()),
			AvgFPS:      sess.AvgFPS(),
			FPSRatio:    sess.FPSRatio(),
			Degraded:    sess.DegradedFraction(),
		}) {
			s.framesDropped.Add(1)
		}
		return
	}
	if !boundary {
		return // stream one batch per detection frame
	}
	ls.seq++
	loading := sess.Phase() == gamesim.PhaseLoading
	fps := sess.LastFPS()
	ls.inMu.Lock()
	echoSeq, echoAt := ls.inSeq, ls.inSentAt
	ls.inMu.Unlock()
	switch ls.out.push(frameRec{
		seq:          ls.seq,
		fps:          fps,
		kbps:         DefaultEncoder().Encode(fps, ls.hosted.Granted, loading),
		stage:        sess.StageType(),
		loading:      loading,
		echoSeq:      echoSeq,
		echoSentAtMS: echoAt,
	}) {
	case pushCoalesced:
		s.framesCoalesced.Add(1)
	case pushDropped:
		s.framesDropped.Add(1)
	}
}

// serveSummaryFeed runs one coordinator load/health feed: the first
// MsgSummaryReq negotiates the protocol (exactly like Hello/Accept, the
// request and its reply travel as JSON and everything after switches to the
// binary framing; a requester that cannot speak it gets a Reject), then each
// further MsgSummaryReq is answered with a fresh ClusterSummary. The feed
// ends when the peer disconnects or the server closes.
func (s *Server) serveSummaryFeed(conn *Conn, req *SummaryReq) {
	if NegotiateProto(req.Proto, ProtoBinary3) == 0 {
		_ = conn.Send(&Envelope{Type: MsgReject, Reject: &Reject{Reason: unsupportedProto(req.Proto)}})
		return
	}
	first := s.LoadSummary()
	first.Proto = ProtoBinary3
	if conn.Send(&Envelope{Type: MsgSummary, Summary: &first}) != nil {
		return
	}
	conn.SetProto(ProtoBinary3)
	s.summariesServed.Add(1)

	var env Envelope
	for {
		if err := conn.RecvInto(&env); err != nil || env.Type != MsgSummaryReq {
			return
		}
		sum := s.LoadSummary()
		if conn.Send(&Envelope{Type: MsgSummary, Summary: &sum}) != nil {
			return
		}
		s.summariesServed.Add(1)
	}
}

// LoadSummary snapshots the cluster's load under the cluster lock: the
// per-cluster rollup the coordinator tier routes sessions on. The idle server
// count is counted here for every policy. Headroom and the per-game
// predicted-demand breakdown come from the policy's forecast caches when it
// implements platform.FleetSummarizer (the CoCG distributor's stamped
// per-server demand timelines). For policies without forward-looking state
// Headroom falls back to 1 − mean worst-dimension utilization.
func (s *Server) LoadSummary() ClusterSummary {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	sum := ClusterSummary{
		Servers:      len(s.cluster.Servers),
		LiveSessions: len(s.live),
		Pending:      len(s.cluster.Pending),
		Placements:   s.cluster.Placements,
		Completed:    int(s.completed),
	}
	var utilSum float64
	for _, srv := range s.cluster.Servers {
		util := srv.Utilization()
		worst := 0.0
		for d := range util {
			if util[d] > worst {
				worst = util[d]
			}
		}
		utilSum += worst
		if srv.NumHosted() == 0 {
			sum.IdleServers++
		}
	}
	if n := len(s.cluster.Servers); n > 0 {
		sum.UtilPct = utilSum / float64(n)
	}
	if fs, ok := s.cluster.Policy.(platform.FleetSummarizer); ok {
		fs.FleetLoadInto(s.cluster.Servers, &s.fleetLoad)
		fl := &s.fleetLoad
		sum.Headroom = fl.MeanHeadroom
		// Games is the summarizer's immutable sorted list (safe to
		// alias); GameDemand is the reused poll buffer the next
		// LoadSummary overwrites, so the escaping summary gets a copy.
		sum.Games = fl.Games
		sum.GameDemand = append([]float64(nil), fl.GameDemand...)
	} else {
		sum.Headroom = max(0, 1-sum.UtilPct/100)
	}
	return sum
}

// Sessions returns the number of currently connected sessions.
func (s *Server) Sessions() int {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return len(s.live)
}

// String describes the server.
func (s *Server) String() string {
	return fmt.Sprintf("streaming server on %s (%d backends, policy %v)",
		s.Addr(), s.cfg.Servers, s.cfg.Policy)
}
