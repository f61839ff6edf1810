package streaming

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
)

// TestSessionSpeaksBinaryByDefault pins the happy-path negotiation: the
// public client offers ProtoBinary3, the server accepts it, and the whole
// session streams over the binary codec with a healthy experience.
func TestSessionSpeaksBinaryByDefault(t *testing.T) {
	s := startServer(t)
	stats, err := Play(s.Addr(), ClientConfig{Game: "Contra", Script: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames == 0 || stats.Final.DurationSec == 0 || stats.Final.FPSRatio < 0.8 {
		t.Fatalf("binary session streamed nothing or degraded: %+v", stats)
	}
}

// requireVersionReject opens a connection, sends one raw JSON handshake line
// and requires the server's whole answer to be a MsgReject that names the
// version it does speak, followed by a close — never a downgraded session.
func requireVersionReject(t *testing.T, addr, line string) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	env, err := conn.Recv()
	if err != nil {
		t.Fatalf("%s: no reply: %v", line, err)
	}
	if env.Type != MsgReject {
		t.Fatalf("%s: answered with %q, want a reject", line, env.Type)
	}
	if want := fmt.Sprintf("version %d only", ProtoBinary3); !strings.Contains(env.Reject.Reason, want) {
		t.Errorf("%s: reject reason %q does not name the supported version (%q)", line, env.Reject.Reason, want)
	}
	if extra, err := conn.Recv(); err == nil {
		t.Errorf("%s: connection stayed open after the reject (got %q)", line, extra.Type)
	}
}

// TestLegacyJSONClientAgainstNewServer is the old-peer test: a client that
// offers only the JSON framing, and one that predates negotiation and sends
// no proto at all, are each told why and disconnected, no session is placed,
// and the server shuts down clean afterwards.
func TestLegacyJSONClientAgainstNewServer(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", ServerConfig{System: testSystem(t), Policy: core.PolicyCoCG, TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	requireVersionReject(t, s.Addr(), `{"type":"hello","hello":{"game":"Contra","script":0,"proto":1}}`)
	requireVersionReject(t, s.Addr(), `{"type":"hello","hello":{"game":"Contra","script":0}}`)
	if sum := s.LoadSummary(); sum.Placements != 0 || sum.LiveSessions != 0 {
		t.Errorf("a rejected hello was placed: %+v", sum)
	}
	requireCleanClose(t, s, before)
}

// requireCleanClose closes the server and requires every goroutine it
// started to be gone (slack for runtime/test helpers that come and go).
func requireCleanClose(t *testing.T, s *Server, before int) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close() hung — goroutine leak")
	}
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestCloseWithLiveSessionsLeaksNothing is the shutdown audit: closing a
// server mid-session must tear down every accept, reader, writer, and tick
// goroutine and return — the pre-PR5 server deadlocked here, because a
// session writer blocked forever on its delivery channel.
func TestCloseWithLiveSessionsLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System:  testSystem(t),
		Policy:  core.PolicyCoCG,
		Servers: 4,
		// The simulation never ticks: every session is provably still live —
		// mid-stream, unfinished — when Close runs.
		TickEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Errors are expected: the server goes away mid-session.
			_, _ = Play(s.Addr(), ClientConfig{Game: "Genshin Impact", Script: i % 3, Timeout: time.Minute})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Sessions() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Sessions() < n {
		t.Fatalf("only %d of %d sessions appeared", s.Sessions(), n)
	}

	// The clients fail as soon as the server goes away, so they are gone too
	// by the time the goroutine count settles.
	requireCleanClose(t, s, before)
	wg.Wait()
}

// TestBackpressureCountsAndSeqGaps pins the overload story end to end. A
// real TCP socket would hide it — the kernel buffers the whole (small)
// simulated stream — so the session rides an unbuffered net.Pipe: the writer
// blocks the moment the peer stops reading, the tiny outbound queue fills,
// and the tick walk must resolve the overload through the coalesce/drop
// policy (visible in the counters) while the client sees sequence gaps and a
// clean End, never unbounded buffering.
func TestBackpressureCountsAndSeqGaps(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System:    testSystem(t),
		Policy:    core.PolicyCoCG,
		TickEvery: time.Hour, // the test owns the tick cadence
		QueueLen:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn, peer := NewConn(a), NewConn(b)
	spec, err := gamesim.GameByName("Genshin Impact") // ~200 frame boundaries
	if err != nil {
		t.Fatal(err)
	}

	// Admit the session by hand (place sends the Accept synchronously, so the
	// peer must already be reading) and wire up its writer like handle does.
	acceptRead := make(chan error, 1)
	go func() {
		env, err := peer.Recv()
		if err == nil && env.Type != MsgAccept {
			err = fmt.Errorf("expected accept, got %q", env.Type)
		}
		acceptRead <- err
	}()
	ls, reason := s.place(conn, spec, &Hello{Game: spec.Name, Proto: ProtoBinary3})
	if ls == nil {
		t.Fatalf("place rejected: %s", reason)
	}
	if err := <-acceptRead; err != nil {
		t.Fatal(err)
	}
	conn.SetProto(ProtoBinary3)
	peer.SetProto(ProtoBinary3)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(ls)
	}()

	// The peer drains lazily while the server produces frame batches about
	// twenty times faster than the client consumes them.
	var gaps, frames int
	var lastSeq int64
	sawEnd := make(chan struct{})
	go func() {
		defer close(sawEnd)
		var env Envelope
		for {
			if err := peer.RecvInto(&env); err != nil {
				return
			}
			if env.Type == MsgEnd {
				return
			}
			if env.Type == MsgFrames {
				frames++
				if lastSeq != 0 && env.Frames.Seq != lastSeq+1 {
					gaps++
				}
				lastSeq = env.Frames.Seq
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	for i := 0; i < 500_000 && !ls.hosted.Session.Done(); i++ {
		s.tickOnce()
		if i%5 == 4 {
			// One frame boundary per 5 ticks: pace production to roughly a
			// batch per millisecond — still an order of magnitude faster
			// than the peer consumes — so the writer goroutine interleaves
			// with the walk instead of the whole session elapsing between
			// two peer reads.
			time.Sleep(time.Millisecond)
		}
	}
	if !ls.hosted.Session.Done() {
		t.Fatal("session never finished")
	}
	s.tickOnce() // deliver the End
	select {
	case <-sawEnd:
	case <-time.After(10 * time.Second):
		t.Fatal("client never received End")
	}
	<-writerDone

	snap := s.snapshot()
	if snap.FramesCoalesced+snap.FramesDropped == 0 {
		t.Error("overloaded session triggered no backpressure")
	}
	if gaps == 0 {
		t.Errorf("client saw no sequence gaps despite backpressure (%d frames)", frames)
	}
	if frames == 0 {
		t.Error("client received no frames at all")
	}
}

// closeWithin runs Close and fails the test if it has not returned after d.
func closeWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close() still blocked after %v", d)
	}
}

// TestCloseWithSilentPeer pins shutdown for a peer that connected but never
// sent its first message: its handler is blocked in the handshake Recv, and
// Close must force that connection down too.
func TestCloseWithSilentPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", ServerConfig{System: testSystem(t), Policy: core.PolicyCoCG, TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Connections are accepted in order: once a later feed is answered, the
	// silent one has its handler.
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	feed := NewConn(nc)
	if err := feed.Send(&Envelope{Type: MsgSummaryReq, SummaryReq: &SummaryReq{Proto: ProtoBinary3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := feed.Recv(); err != nil {
		t.Fatal(err)
	}
	feed.Close()

	closeWithin(t, s, 2*time.Second)
	requireCleanClose(t, s, before) // already closed: checks the goroutines
}

// TestSessionChurnUnderTicks races the server's whole lifecycle: clients
// connect, stream a few batches and hang up while the cluster ticks every
// millisecond and a poller reads LoadSummary and Sessions; Close lands
// mid-churn and no goroutine the server started may outlive it.
func TestSessionChurnUnderTicks(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System: testSystem(t), Policy: core.PolicyCoCG, Servers: 4,
		TickEvery: time.Millisecond, QueueLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var sessions atomic.Int64
	games := []string{"Contra", "Genshin Impact"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				nc, err := net.Dial("tcp", s.Addr())
				if err != nil {
					return // the server is gone
				}
				c := NewConn(nc)
				if c.Send(&Envelope{Type: MsgHello, Hello: &Hello{
					Game: games[(g+i)%2], Script: i % 3, Proto: ProtoBinary3,
				}}) == nil {
					if env, err := c.Recv(); err == nil && env.Type == MsgAccept {
						sessions.Add(1)
						c.SetProto(ProtoBinary3)
						var body Envelope
						for k := 0; k < (g+i)%4; k++ {
							if c.RecvInto(&body) != nil {
								break
							}
						}
					}
				}
				c.Close()
				c.Release()
			}
		}(g)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if sum := s.LoadSummary(); sum.LiveSessions < 0 || s.Sessions() < 0 {
				t.Error("negative session count")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); sessions.Load() < 40 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if sessions.Load() < 40 {
		t.Fatalf("only %d sessions placed", sessions.Load())
	}
	closeWithin(t, s, 10*time.Second)
	close(stop)
	wg.Wait()
	requireCleanClose(t, s, before)
}

// TestServingPlacesLikeTheCluster pins the serving tier to the cluster's
// placement path: every admitted session lands on the server
// Cluster.PickServer names for that arrival at that moment. The cluster
// never ticks, so only placements change its state. The sequence must also
// contain arrivals the CoCG scorer places off the first admitting server,
// or it would not tell the distributor from a first-fit scan.
func TestServingPlacesLikeTheCluster(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System: testSystem(t), Policy: core.PolicyCoCG, Servers: 4, TickEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pools := testSystem(t).HabitPools()
	specs := []*gamesim.GameSpec{gamesim.GenshinImpact(), gamesim.Contra()}
	offFirstFit, placed := 0, 0
	for i := 0; i < 16; i++ {
		spec := specs[i%len(specs)]
		pool := pools[spec.Name]
		a := platform.Arrival{Spec: spec, Script: i % len(spec.Scripts), Habit: pool[i%len(pool)]}
		s.clusterMu.Lock()
		want := s.cluster.PickServer(a)
		firstFit := -1
		for _, srv := range s.cluster.Servers {
			if _, ok := s.cluster.Policy.Score(srv, a.Spec, a.Habit); ok {
				firstFit = srv.ID
				break
			}
		}
		s.clusterMu.Unlock()

		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close() // the session stays live until the test ends
		c := NewConn(nc)
		if err := c.Send(&Envelope{Type: MsgHello, Hello: &Hello{
			Game: spec.Name, Script: a.Script, Habit: a.Habit, Proto: ProtoBinary3,
		}}); err != nil {
			t.Fatal(err)
		}
		reply, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if reply.Type != MsgReject {
				t.Fatalf("arrival %d: no server admits it, server replied %q", i, reply.Type)
			}
			continue
		}
		if reply.Type != MsgAccept {
			t.Fatalf("arrival %d: want server %d, server replied %q", i, want.ID, reply.Type)
		}
		if reply.Accept.Server != want.ID {
			t.Fatalf("arrival %d (%s): placed on server %d, the cluster picks %d",
				i, spec.Name, reply.Accept.Server, want.ID)
		}
		placed++
		if want.ID != firstFit {
			offFirstFit++
		}
	}
	if offFirstFit == 0 {
		t.Fatalf("all %d placements were first fit: the sequence does not exercise the scorer", placed)
	}
	t.Logf("%d placed, %d off first fit", placed, offFirstFit)
}
