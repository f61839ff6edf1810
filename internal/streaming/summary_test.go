package streaming

import (
	"net"
	"testing"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
)

// TestSummaryFeedNegotiatesAndServes drives the coordinator-facing load feed
// by hand: the first MsgSummaryReq travels as JSON and negotiates the wire
// protocol exactly like a session Hello, every further round runs over the
// binary framing, and each reply carries a sane cluster rollup.
func TestSummaryFeedNegotiatesAndServes(t *testing.T) {
	s := startServer(t)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	feed := NewConn(nc)

	if err := feed.Send(&Envelope{Type: MsgSummaryReq,
		SummaryReq: &SummaryReq{Proto: ProtoBinary3}}); err != nil {
		t.Fatal(err)
	}
	env, err := feed.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgSummary || env.Summary == nil {
		t.Fatalf("summary request answered with %q", env.Type)
	}
	if env.Summary.Proto != ProtoBinary3 {
		t.Fatalf("feed negotiated proto %d, want %d", env.Summary.Proto, ProtoBinary3)
	}
	if env.Summary.Servers != 2 {
		t.Errorf("summary reports %d servers, cluster has 2", env.Summary.Servers)
	}
	if env.Summary.Headroom < 0 || env.Summary.Headroom > 1 {
		t.Errorf("headroom %.3f out of [0,1]", env.Summary.Headroom)
	}

	// Second round over the binary framing.
	feed.SetProto(NegotiateProto(ProtoBinary3, env.Summary.Proto))
	if err := feed.Send(&Envelope{Type: MsgSummaryReq, SummaryReq: &SummaryReq{}}); err != nil {
		t.Fatal(err)
	}
	env2, err := feed.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env2.Type != MsgSummary {
		t.Fatalf("binary summary round answered with %q", env2.Type)
	}
	// The server counts a reply after sending it, so the second count can
	// trail the reply by a moment.
	for deadline := time.Now().Add(5 * time.Second); s.snapshot().SummariesServed != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("summaries-served counter %d, want 2", s.snapshot().SummariesServed)
		}
	}
}

// TestSummaryFeedReflectsLiveSessions ties the feed to reality: a session
// admitted mid-feed shows up in the next summary's LiveSessions/Placements.
func TestSummaryFeedReflectsLiveSessions(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System:    testSystem(t),
		Policy:    core.PolicyCoCG,
		Servers:   2,
		TickEvery: time.Hour, // sessions stay live while we look
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	sessionDone := make(chan struct{})
	go func() {
		defer close(sessionDone)
		_, _ = Play(s.Addr(), ClientConfig{Game: "Contra", Script: 0, Timeout: time.Minute})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Sessions() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Sessions() < 1 {
		t.Fatal("session never admitted")
	}

	sum := s.LoadSummary()
	if sum.LiveSessions != 1 {
		t.Errorf("summary reports %d live sessions, want 1", sum.LiveSessions)
	}
	if sum.Placements != 1 {
		t.Errorf("summary reports %d placements, want 1", sum.Placements)
	}
	s.Close() // tears the live session down
	<-sessionDone
}

// TestCloseUnblocksSummaryFeeds pins shutdown for the feed path: a server
// closing with a feed blocked in Recv must disconnect it rather than hang.
func TestCloseUnblocksSummaryFeeds(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System:    testSystem(t),
		Policy:    core.PolicyCoCG,
		TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	feed := NewConn(nc)
	if err := feed.Send(&Envelope{Type: MsgSummaryReq,
		SummaryReq: &SummaryReq{Proto: ProtoBinary3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := feed.Recv(); err != nil {
		t.Fatal(err)
	}
	// The feed now idles between requests; the server side is blocked in
	// RecvInto waiting for the next one.
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close() hung on an idle summary feed")
	}
	if _, err := feed.Recv(); err == nil {
		t.Error("feed still alive after server close")
	}
}

// TestSummaryIdleServersUnderEveryPolicy pins the idle count to the cluster
// itself: with k of N servers hosting one session each, the summary reports
// N − k idle servers whether or not the policy summarizes its fleet (CoCG
// does, the reactive baseline does not).
func TestSummaryIdleServersUnderEveryPolicy(t *testing.T) {
	const n = 5
	hostOn := []int{1, 3}
	for _, kind := range []core.PolicyKind{core.PolicyReactive, core.PolicyCoCG} {
		s, err := Serve("127.0.0.1:0", ServerConfig{
			System:    testSystem(t),
			Policy:    kind,
			Servers:   n,
			TickEvery: time.Hour, // nothing ticks while we look
		})
		if err != nil {
			t.Fatal(err)
		}
		s.clusterMu.Lock()
		spec := gamesim.Contra()
		for i, srvIdx := range hostOn {
			sess, err := gamesim.NewSession(spec, 0, int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := s.cluster.Policy.NewController(spec, int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			s.cluster.Servers[srvIdx].Add(spec, sess, ctl)
		}
		s.clusterMu.Unlock()
		if got := s.LoadSummary().IdleServers; got != n-len(hostOn) {
			t.Errorf("%v: summary reports %d idle servers, want %d", kind, got, n-len(hostOn))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
