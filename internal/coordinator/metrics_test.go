package coordinator

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"cocg/internal/obs"
	"cocg/internal/streaming"
)

// goldenSnapshot is a fabricated two-cluster fleet: one cluster name needs
// quoting, one cluster was never probed, one summary lists more games than
// demand entries, and the values sit on the text format's rounding
// boundaries.
func goldenSnapshot() fleetSnapshot {
	return fleetSnapshot{
		LiveSessions: 5, Decisions: 31, Admissions: 27, Rejections: 3,
		Failovers: 2, MarkedDown: 1, FleetSessions: 9,
		Clusters: []clusterSnapshot{
			{
				ID: 0, Name: "us-east", label: [2]string{"cluster", "us-east"}, Addr: "10.0.0.1:9500", Healthy: true, Probed: true,
				LatencyMS: 12.5, SummaryAgeSec: 0.0125,
				Summary: streaming.ClusterSummary{
					Servers: 8, LiveSessions: 9, Pending: 1, Placements: 40, Completed: 31,
					Headroom: 0.12345, UtilPct: 61.25, IdleServers: 2,
					Games:      []string{"Contra", "Genshin Impact", "CSGO"},
					GameDemand: []float64{0.00005, 1.23456},
				},
				Routed: 20, Admitted: 18, Rejected: 1, Transport: 1, ProbeFailures: 4,
			},
			{
				ID: 1, Name: `eu-"west"`, label: [2]string{"cluster", `eu-"west"`}, Addr: "10.0.0.2:9500", LatencyMS: 80,
				SummaryAgeSec: -1,
				Routed:        11, Admitted: 9, Rejected: 2,
			},
		},
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
// every cocg_coord_* row names a served family.
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
		if strings.HasPrefix(name, "cocg_coord_") && !served[name] {
			t.Errorf("docs/FLEET.md lists %s, which the coordinator does not serve", name)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body, so the
// bytes a request allocates are the handler's own.
type discardWriter struct {
	header http.Header
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { w.n = len(p); return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestMetricsScrapeSizedFromLast checks that a /metrics scrape renders into
// a buffer sized from the previous page: after the first scrape, each one
// allocates at most a quarter more bytes than the page it serves, where a
// buffer grown from nil doubles its way up and allocates about twice the
// page.
func TestMetricsScrapeSizedFromLast(t *testing.T) {
	snap := goldenSnapshot()
	h := obs.Handler(metrics, func() fleetSnapshot { return snap })
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &discardWriter{header: http.Header{}}
	h.ServeHTTP(w, req)
	page := w.n
	if page == 0 {
		t.Fatal("the first scrape served an empty page")
	}
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	perScrape := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a %d-byte page allocates %.0f bytes, %.0f objects per scrape", page, perScrape, float64(after.Mallocs-before.Mallocs)/runs)
	if w.n != page {
		t.Fatalf("page changed size between scrapes: %d then %d bytes", page, w.n)
	}
	if perScrape > 1.25*float64(page) {
		t.Errorf("a scrape allocates %.0f bytes for a %d-byte page, want at most 1.25x", perScrape, page)
	}
}
