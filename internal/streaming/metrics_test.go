package streaming

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t)
	// Play one quick session so the counters move.
	stats, err := Play(s.Addr(), ClientConfig{Game: "Contra", Script: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.MetricsHandler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"cocg_live_sessions",
		"cocg_placements_total 1",
		"cocg_completed_sessions_total 1",
		"cocg_server_hosted{server=\"0\"}",
		"cocg_server_utilization{server=\"1\",dim=\"gpu\"}",
		"cocg_stream_ticks_total ",
		"cocg_stream_ticks_skipped_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Placements int `json:"placements"`
		Completed  int `json:"completed"`
		Servers    []struct {
			ID int `json:"id"`
		} `json:"servers"`
		Ticks        *uint64 `json:"ticks"`
		TicksSkipped *uint64 `json:"ticks_skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Placements != 1 || snap.Completed != 1 || len(snap.Servers) != 2 {
		t.Errorf("status = %+v", snap)
	}
	if snap.Ticks == nil || snap.TicksSkipped == nil {
		t.Fatalf("/status lacks the pacing counters: %+v", snap)
	}
	// A whole session ran, so the simulation ticked at least that long.
	if *snap.Ticks < uint64(stats.Final.DurationSec) {
		t.Errorf("/status ticks = %d after a %d s session", *snap.Ticks, stats.Final.DurationSec)
	}
}

func TestMetricsWhileSessionLive(t *testing.T) {
	s := startServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Play(s.Addr(), ClientConfig{Game: "Genshin Impact", Script: 0, Timeout: time.Minute})
	}()
	// Wait for the session to appear, then scrape.
	deadline := time.Now().Add(5 * time.Second)
	for s.Sessions() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Sessions() == 0 {
		t.Fatal("session never appeared")
	}
	ts := httptest.NewServer(s.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cocg_live_sessions 1") {
		t.Errorf("live session not reported:\n%s", body)
	}
	<-done
}

// TestFinishedSessionsKeepNoRecords pins the daemon's memory bound: the
// server counts finished sessions through the cluster's record sink, so
// /status still reports every completion while the backends retain no
// per-session Record.
func TestFinishedSessionsKeepNoRecords(t *testing.T) {
	s := startServer(t)
	const n = 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Play(s.Addr(), ClientConfig{Game: "Contra", Script: i % 3}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ts := httptest.NewServer(s.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Completed int `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Completed != n {
		t.Errorf("/status completed = %d, want %d", snap.Completed, n)
	}
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	for _, srv := range s.cluster.Servers {
		if len(srv.Records) != 0 {
			t.Errorf("backend %d retains %d records", srv.ID, len(srv.Records))
		}
	}
}
