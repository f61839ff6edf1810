package streaming

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/netmodel"
	"cocg/internal/resources"
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

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System:    testSystem(t),
		Policy:    core.PolicyCoCG,
		Servers:   2,
		TickEvery: time.Millisecond, // 1000x speed
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestClientPlaysFullSession(t *testing.T) {
	s := startServer(t)
	stats, err := Play(s.Addr(), ClientConfig{Game: "Contra", Script: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames == 0 {
		t.Fatal("no frame batches received")
	}
	if stats.MeanFPS < 30 {
		t.Errorf("mean FPS %.1f", stats.MeanFPS)
	}
	if stats.MeanBitrate <= 0 {
		t.Error("no bitrate recorded")
	}
	if stats.LoadingSec == 0 {
		t.Error("client never saw a loading screen")
	}
	if stats.Final.DurationSec == 0 || stats.Final.FPSRatio < 0.9 {
		t.Errorf("final stats: %+v", stats.Final)
	}
	if stats.MeanRTTMS < 0 {
		t.Errorf("RTT %.1f ms", stats.MeanRTTMS)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t)
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]*ClientStats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Play(s.Addr(), ClientConfig{Game: "Contra", Script: i % 3})
		}(i)
	}
	wg.Wait()
	completed := 0
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			completed++
			if results[i].Final.FPSRatio < 0.8 {
				t.Errorf("client %d FPS ratio %.2f", i, results[i].Final.FPSRatio)
			}
		}
	}
	if completed < 2 {
		t.Fatalf("only %d of %d concurrent clients completed", completed, n)
	}
}

func TestClientWithNetworkLink(t *testing.T) {
	s := startServer(t)
	stats, err := Play(s.Addr(), ClientConfig{
		Game: "Contra", Script: 0,
		Link: netmodel.FiberLink(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Net.Sent != stats.Frames {
		t.Errorf("net sent %d != frames %d", stats.Net.Sent, stats.Frames)
	}
	if stats.Net.MeanLatencyMS() <= 0 || stats.Net.MeanLatencyMS() > 10 {
		t.Errorf("fiber latency %.1f ms", stats.Net.MeanLatencyMS())
	}
	if stats.Net.StutterRate() > 0.01 {
		t.Errorf("fiber stutter rate %.3f", stats.Net.StutterRate())
	}
}

func TestRejectUnknownGame(t *testing.T) {
	s := startServer(t)
	_, err := Play(s.Addr(), ClientConfig{Game: "Tetris"})
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v", err)
	}
	if _, err := Play(s.Addr(), ClientConfig{Game: "Contra", Script: 99}); err == nil {
		t.Fatal("bad script accepted")
	}
}

func TestServerCloseIsIdempotent(t *testing.T) {
	s := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestServeRequiresSystem(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", ServerConfig{}); err == nil {
		t.Fatal("Serve without a system did not error")
	}
}

func TestEncoderModel(t *testing.T) {
	e := DefaultEncoder()
	battle := resources.New(55, 80, 50, 50)
	idle := resources.New(20, 20, 20, 20)
	full := e.Encode(60, battle, false)
	low := e.Encode(60, idle, false)
	if full <= low {
		t.Errorf("high-motion bitrate %.0f not above low-motion %.0f", full, low)
	}
	loading := e.Encode(0, battle, true)
	if loading >= low {
		t.Errorf("loading bitrate %.0f not below gameplay %.0f", loading, low)
	}
	slow := e.Encode(30, battle, false)
	if slow >= full {
		t.Errorf("30 FPS bitrate %.0f not below 60 FPS %.0f", slow, full)
	}
	// Caps hold.
	if r := e.Encode(240, resources.Uniform(100), false); r > maxKbps {
		t.Errorf("bitrate %.0f above cap", r)
	}
	if r := e.Encode(1, resources.Uniform(0), false); r < minKbps {
		t.Errorf("bitrate %.0f below floor", r)
	}
}

func TestEnvelopeValidation(t *testing.T) {
	bad := &Envelope{Type: MsgHello} // no payload
	if err := bad.validate(); err == nil {
		t.Error("payload-less envelope validated")
	}
	unknown := &Envelope{Type: "nope"}
	if err := unknown.validate(); err == nil {
		t.Error("unknown type validated")
	}
	good := &Envelope{Type: MsgReject, Reject: &Reject{Reason: "x"}}
	if err := good.validate(); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
}
