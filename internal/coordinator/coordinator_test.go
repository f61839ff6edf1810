package coordinator

import (
	"encoding/json"
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
	"cocg/internal/streaming"
)

var (
	sysOnce sync.Once
	sysVal  *core.System
	sysErr  error
)

func testSystem(t testing.TB) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = core.Train(
			[]*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact()},
			core.TrainOptions{Players: 4, SessionsPerPlayer: 2, Seed: 77},
		)
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

// startCluster brings up one in-process cocg-server cluster for the fleet.
func startCluster(t *testing.T, tick time.Duration) *streaming.Server {
	t.Helper()
	s, err := streaming.Serve("127.0.0.1:0", streaming.ServerConfig{
		System:    testSystem(t),
		Policy:    core.PolicyCoCG,
		Servers:   4,
		TickEvery: tick,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// startFleet builds a coordinator over the given clusters and waits until
// the probers have seen every one healthy.
func startFleet(t *testing.T, specs []ClusterSpec) *Coordinator {
	t.Helper()
	co, err := Serve("127.0.0.1:0", Config{
		Clusters:   specs,
		ProbeEvery: 10 * time.Millisecond,
		DownAfter:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, m := range co.members {
			if v := m.view(); v.Healthy {
				healthy++
			}
		}
		if healthy == len(specs) {
			return co
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clusters became healthy", healthy, len(specs))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetRoutesToNearestCluster is the happy-path e2e: a session played
// through the coordinator completes end to end, lands on the low-latency
// region of an otherwise idle fleet, and the client learns which cluster
// served it from the Accept stamp.
func TestFleetRoutesToNearestCluster(t *testing.T) {
	near := startCluster(t, time.Millisecond)
	far := startCluster(t, time.Millisecond)
	co := startFleet(t, []ClusterSpec{
		{Name: "far", Addr: far.Addr(), LatencyMS: 120},
		{Name: "near", Addr: near.Addr(), LatencyMS: 5},
	})

	stats, err := streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Contra", Script: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster != "near" {
		t.Errorf("idle fleet routed to %q, want the low-latency cluster", stats.Cluster)
	}
	if stats.Frames == 0 || stats.Final.DurationSec == 0 {
		t.Errorf("proxied session streamed nothing: %+v", stats)
	}
	if got := co.decisions.Load(); got != 1 {
		t.Errorf("routing decisions %d, want 1", got)
	}
	if got := co.admissions.Load(); got != 1 {
		t.Errorf("admissions %d, want 1", got)
	}
	if got := co.members[1].admitted.Load(); got != 1 {
		t.Errorf("near cluster admitted %d sessions, want 1", got)
	}

	// The same three counters, as an operator's scrape reads them.
	page := string(get(co.MetricsHandler(), "/metrics"))
	for _, want := range []string{
		"\ncocg_coord_routing_decisions_total 1\n",
		"\ncocg_coord_admissions_total 1\n",
		"\ncocg_coord_cluster_admitted_total{cluster=\"near\"} 1\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics lacks %q in:\n%s", want[1:], page)
		}
	}
	var status struct {
		Clusters []struct {
			Name   string `json:"name"`
			Probed bool   `json:"probed"`
		} `json:"clusters"`
	}
	if err := json.Unmarshal(get(co.MetricsHandler(), "/status"), &status); err != nil {
		t.Fatalf("/status: %v", err)
	}
	if len(status.Clusters) != 2 || !status.Clusters[0].Probed || !status.Clusters[1].Probed {
		t.Errorf("/status clusters = %+v, want far and near, both probed", status.Clusters)
	}
}

// TestFleetFailsOverWhenClusterDies is the degraded-mode e2e: with the
// preferred region killed mid-run, new sessions fail over to the survivor
// within a single admission (the dead dial is the detector), the fleet
// counters record it, and the prober marks the region down.
func TestFleetFailsOverWhenClusterDies(t *testing.T) {
	doomed := startCluster(t, time.Millisecond)
	survivor := startCluster(t, time.Millisecond)
	co := startFleet(t, []ClusterSpec{
		{Name: "doomed", Addr: doomed.Addr(), LatencyMS: 5},
		{Name: "survivor", Addr: survivor.Addr(), LatencyMS: 120},
	})

	if err := doomed.Close(); err != nil {
		t.Fatal(err)
	}
	// The prober may not have noticed yet: the very next session must still
	// land, failing over from the dead dial to the survivor.
	stats, err := streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Contra", Script: 0})
	if err != nil {
		t.Fatalf("session during failover: %v", err)
	}
	if stats.Cluster != "survivor" {
		t.Errorf("failover routed to %q, want survivor", stats.Cluster)
	}
	if stats.Frames == 0 {
		t.Error("failover session streamed nothing")
	}
	if co.failovers.Load()+co.members[0].transport.Load() == 0 {
		t.Error("no failover or transport failure recorded against the dead cluster")
	}

	// The prober must flip the verdict, after which routing excludes the
	// region entirely.
	deadline := time.Now().Add(10 * time.Second)
	for co.members[0].view().Healthy && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if co.members[0].view().Healthy {
		t.Fatal("dead cluster never marked down")
	}
	if got := co.markedDown.Load(); got == 0 {
		t.Error("marked-down counter never moved")
	}
	stats, err = streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Genshin Impact", Script: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster != "survivor" {
		t.Errorf("post-mark-down session routed to %q", stats.Cluster)
	}
}

// feedRejectingCluster is a stand-in cluster that speaks the summary feed
// until refuse flips, then hangs up on the open feed and answers every new
// first request with a Reject — a peer whose wire version no longer matches.
// Its handlers end when the coordinator under test closes its connections.
func feedRejectingCluster(t *testing.T, refuse *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	summary := &streaming.Envelope{Type: streaming.MsgSummary, Summary: &streaming.ClusterSummary{
		Proto: streaming.ProtoBinary3, Servers: 4, Headroom: 1,
	}}
	serve := func(nc net.Conn) {
		defer nc.Close()
		conn := streaming.NewConn(nc)
		if _, err := conn.Recv(); err != nil {
			return
		}
		if refuse.Load() {
			_ = conn.Send(&streaming.Envelope{Type: streaming.MsgReject,
				Reject: &streaming.Reject{Reason: "unsupported wire protocol version 3"}})
			return
		}
		if conn.Send(summary) != nil {
			return
		}
		conn.SetProto(streaming.ProtoBinary3)
		for {
			if _, err := conn.Recv(); err != nil || refuse.Load() || conn.Send(summary) != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return ln.Addr().String()
}

// TestFeedRejectMarksClusterDown covers the one-layout wire's failure mode on
// the control plane: a cluster that answers the summary feed with a Reject is
// a failed probe like any other — marked down after DownAfter of them, with
// the reason logged, and left out of routing even when it is the nearest.
func TestFeedRejectMarksClusterDown(t *testing.T) {
	var refuse atomic.Bool
	real := startCluster(t, time.Millisecond)
	var logMu sync.Mutex
	var logged []string
	co, err := Serve("127.0.0.1:0", Config{
		Clusters: []ClusterSpec{
			{Name: "mismatched", Addr: feedRejectingCluster(t, &refuse), LatencyMS: 1},
			{Name: "real", Addr: real.Addr(), LatencyMS: 120},
		},
		ProbeEvery: 5 * time.Millisecond,
		DownAfter:  3,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	mismatched := co.members[0]
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("both clusters healthy", func() bool {
		return mismatched.view().Healthy && co.members[1].view().Healthy
	})

	refuse.Store(true)
	waitFor("the rejecting cluster to be marked down", func() bool { return !mismatched.view().Healthy })
	if got := mismatched.probeFails.Load(); got < 3 {
		t.Errorf("marked down after %d failed probes, want DownAfter=3", got)
	}
	if got := co.markedDown.Load(); got != 1 {
		t.Errorf("marked-down transitions %d, want 1", got)
	}
	logMu.Lock()
	lines := strings.Join(logged, "\n")
	logMu.Unlock()
	if !strings.Contains(lines, "mismatched") || !strings.Contains(lines, "summary feed rejected") {
		t.Errorf("mark-down log does not carry the reject reason:\n%s", lines)
	}

	stats, err := streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Contra", Script: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster != "real" {
		t.Errorf("session routed to %q, want the cluster whose feed works", stats.Cluster)
	}
	if got := mismatched.routed.Load(); got != 0 {
		t.Errorf("the marked-down cluster was dialed for %d sessions", got)
	}
}

// TestFleetRejectsWhenAllClustersDown pins the all-dead answer: a clean
// protocol-level rejection, not a hang or a dropped connection.
func TestFleetRejectsWhenAllClustersDown(t *testing.T) {
	only := startCluster(t, time.Millisecond)
	co := startFleet(t, []ClusterSpec{{Name: "only", Addr: only.Addr(), LatencyMS: 5}})
	if err := only.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Contra", Script: 0}); err == nil {
		t.Fatal("session against a dead fleet succeeded")
	}
	if got := co.rejections.Load(); got != 1 {
		t.Errorf("rejections %d, want 1", got)
	}
}

// TestCoordinatorCloseWithLiveSessionsLeaksNothing is the shutdown audit for
// the proxy tier, mirroring the streaming server's: closing a coordinator
// with sessions mid-pipe must tear down the listener, every prober, and both
// relay goroutines of every live session — and leak nothing.
func TestCoordinatorCloseWithLiveSessionsLeaksNothing(t *testing.T) {
	// The clusters never tick: every proxied session is provably still live
	// when Close runs.
	a := startCluster(t, time.Hour)
	b := startCluster(t, time.Hour)
	before := runtime.NumGoroutine()
	co := startFleet(t, []ClusterSpec{
		{Name: "a", Addr: a.Addr(), LatencyMS: 5},
		{Name: "b", Addr: b.Addr(), LatencyMS: 40},
	})

	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Errors are expected: the coordinator goes away mid-session.
			_, _ = streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Genshin Impact", Script: i % 3, Timeout: time.Minute})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.Sessions() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if co.Sessions() < n {
		t.Fatalf("only %d of %d sessions appeared", co.Sessions(), n)
	}

	closed := make(chan error, 1)
	go func() { closed <- co.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close() hung with live proxied sessions — goroutine leak")
	}
	wg.Wait()

	// Every coordinator goroutine must be gone; allow slack for runtime/test
	// helpers that come and go.
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestParseRejectsBadConfig covers Serve's validation.
func TestServeRejectsEmptyFleet(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", Config{}); err == nil {
		t.Fatal("Serve accepted an empty fleet")
	}
}

// helloSilentCluster is a stand-in cluster that serves the summary feed, so
// the coordinator routes to it, but never answers a Hello: a session sent
// there leaves the coordinator blocked in admission. hellos receives one
// value per Hello taken. Its handlers end when the coordinator under test
// closes its connections.
func helloSilentCluster(t *testing.T, hellos chan<- struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	summary := &streaming.Envelope{Type: streaming.MsgSummary, Summary: &streaming.ClusterSummary{
		Proto: streaming.ProtoBinary3, Servers: 4, Headroom: 1,
	}}
	serve := func(nc net.Conn) {
		defer nc.Close()
		conn := streaming.NewConn(nc)
		env, err := conn.Recv()
		if err != nil {
			return
		}
		if env.Type == streaming.MsgHello {
			hellos <- struct{}{}
			_, _ = conn.Recv() // silent until the coordinator hangs up
			return
		}
		if conn.Send(summary) != nil {
			return
		}
		conn.SetProto(streaming.ProtoBinary3)
		for {
			if _, err := conn.Recv(); err != nil || conn.Send(summary) != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return ln.Addr().String()
}

// closeWithin runs Close and fails the test if it has not returned after d.
func closeWithin(t *testing.T, co *Coordinator, d time.Duration) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- co.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close() still blocked after %v", d)
	}
}

// TestCloseWithSilentPeer pins shutdown for peers that go quiet before a
// session is spliced: a client that connects and never sends its Hello, and
// a cluster that takes a Hello and never answers it. Close must force those
// connections down within 2 s.
func TestCloseWithSilentPeer(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		// No cluster ever comes up, so every Hello is answered with a Reject.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		down := ln.Addr().String()
		ln.Close()
		co, err := Serve("127.0.0.1:0", Config{Clusters: []ClusterSpec{{Name: "down", Addr: down}}})
		if err != nil {
			t.Fatal(err)
		}
		silent, err := net.Dial("tcp", co.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
		// Connections are accepted in order: once a later Hello is answered,
		// the silent one has its handler.
		if _, err := streaming.Play(co.Addr(), streaming.ClientConfig{Game: "Contra"}); err == nil {
			t.Fatal("session against a fleet with no healthy cluster succeeded")
		}
		closeWithin(t, co, 2*time.Second)
	})
	t.Run("backend", func(t *testing.T) {
		hellos := make(chan struct{}, 1)
		co := startFleet(t, []ClusterSpec{{Name: "silent", Addr: helloSilentCluster(t, hellos)}})
		nc, err := net.Dial("tcp", co.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		client := streaming.NewConn(nc)
		if err := client.Send(&streaming.Envelope{Type: streaming.MsgHello, Hello: &streaming.Hello{
			Game: "Contra", Proto: streaming.ProtoBinary3,
		}}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-hellos:
		case <-time.After(10 * time.Second):
			t.Fatal("the Hello never reached the cluster")
		}
		closeWithin(t, co, 2*time.Second)
	})
}
