package streaming

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cocg/internal/core"
	"cocg/internal/obs"
	"cocg/internal/resources"
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

// discardWriter is an http.ResponseWriter that keeps nothing, so a scrape's
// allocations are the handler's own.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestMetricsScrapeAllocationsFlat bounds what a /metrics scrape of 128
// backends allocates: each backend's label is formatted once, not per sample
// per scrape, so the count does not grow with the fleet (it was 70 here, and
// 1 865 at 1 024 backends, when every sample formatted its ID).
func TestMetricsScrapeAllocationsFlat(t *testing.T) {
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System: testSystem(t), Policy: core.PolicyCoCG, Servers: 128,
		TickEvery: time.Hour, // no tick allocates beside the scrape
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.MetricsHandler()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // formats the labels, sizes the page buffer
	if allocs := testing.AllocsPerRun(50, func() { h.ServeHTTP(w, req) }); allocs > 16 {
		t.Errorf("a scrape of 128 backends allocates %.0f objects, want at most 16", allocs)
	}
}

// goldenSnapshot is a fabricated two-server view whose utilizations sit on
// the two-decimal rounding boundary of the text format.
func goldenSnapshot() snapshot {
	return snapshot{
		LiveSessions: 3, Placements: 17, Pending: 2, Completed: 14,
		Servers: []serverSnapshot{
			{ID: 0, label: "0", Hosted: 2, Util: resources.New(12.345, 99.995, 0.004, 100), Peak: resources.New(50.5, 100, 0.25, 100)},
			{ID: 1, label: "1", Hosted: 1, Util: resources.New(0.005, 33.333333, 66.666666, 0), Peak: resources.New(1, 2, 3, 4)},
		},
		FramesSent: 123456, FramesCoalesced: 7, FramesDropped: 1, SummariesServed: 42,
		Ticks: 9000, TicksSkipped: 11,
	}
}

// TestMetricsGolden pins the /metrics and /status pages byte for byte.
func TestMetricsGolden(t *testing.T) {
	h := obs.Handler(metrics, goldenSnapshot)
	checkGolden(t, "testdata/metrics.txt", get(h, "/metrics"))
	checkGolden(t, "testdata/status.json", get(h, "/status"))
}

// get serves one GET of path through h and returns the body.
func get(h http.Handler, path string) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

// checkGolden fails when got differs from the golden file, keeping got in a
// temp file for the diff.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		saved := "(not saved)"
		if f, err := os.CreateTemp("", "golden-*"); err == nil {
			if _, err := f.Write(got); err == nil {
				saved = f.Name()
			}
			_ = f.Close()
		}
		t.Errorf("%s: rendered %d bytes that differ from the golden's %d; rendered page in %s", path, len(got), len(want), saved)
	}
}

// docRow is one row of a metric table in docs/FLEET.md: name and type.
var docRow = regexp.MustCompile("(?m)^\\| `(cocg_[a-z_]+)` \\| ([a-z]+) \\|")

// TestFleetDocMatchesMetrics checks docs/FLEET.md's metric tables against
// the served families: each has exactly one row, of its type, and
// every other cocg_* row names a served family.
func TestFleetDocMatchesMetrics(t *testing.T) {
	doc, err := os.ReadFile("../../docs/FLEET.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{} // metric name -> the types its rows give
	for _, m := range docRow.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = append(rows[m[1]], m[2])
	}
	served := map[string]bool{}
	for _, m := range metrics {
		served[m.Name] = true
		if got := rows[m.Name]; len(got) != 1 || got[0] != m.Type {
			t.Errorf("docs/FLEET.md has rows %v for %s, want one %s row", got, m.Name, m.Type)
		}
	}
	for name := range rows {
		if strings.HasPrefix(name, "cocg_") && !strings.HasPrefix(name, "cocg_coord_") && !served[name] {
			t.Errorf("docs/FLEET.md lists %s, which a cluster does not serve", name)
		}
	}
}
