package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"cocg/bench/expected"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload's two passes at the smoke size and holds the
// output to what BENCHMARK.json promises the driver.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short"}, &stdout, &stderr); code != 0 {
		t.Fatalf("cocgbench -short exited %d:\n%s", code, stderr.String())
	}
	var doc Document
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Claim != nil {
		t.Errorf("claim = %q, this benchmark claims no gain", *doc.Claim)
	}
	bench := loadBenchmarkFile(t)
	rows := map[string]WorkloadRecord{}
	for _, w := range doc.Workloads {
		rows[w.Name] = w
	}
	for _, bw := range bench.Workloads {
		w, ok := rows[bw.Name]
		if !ok {
			t.Errorf("workload %s named in BENCHMARK.json did not run", bw.Name)
			continue
		}
		if !w.Correct {
			t.Errorf("%s: output checks failed: %v", w.Name, w.Problems)
		}
		for _, e := range bench.EndToEnd {
			m, ok := w.EndToEnd[e.Name]
			if !ok || m.Unit != e.Unit || m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a finite non-zero %s", w.Name, e.Name, m, ok, e.Unit)
			}
		}
		for _, p := range bench.PerLayer {
			m, ok := w.PerLayer[p.Name]
			if !ok || m.Unit != p.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want a finite %s", w.Name, p.Name, m, ok, p.Unit)
			}
		}
		if m := w.PerLayer["trace.equivalent"]; m.Value != 1 {
			t.Errorf("%s: trace.equivalent = %v: the exploded driver diverged from RunEvented", w.Name, m.Value)
		}
	}
	if a, b := rows["rack-cocg"].InputDigest, rows["rack-reactive"].InputDigest; a != b {
		t.Errorf("rack-reactive must replay rack-cocg's schedule: input digests %s vs %s", b, a)
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the harness's own
// metric tables from drifting apart.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bench := loadBenchmarkFile(t)
	defs := workloadDefs(false)
	if len(bench.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bench.Workloads), len(defs))
	}
	for i, d := range defs {
		if bw := bench.Workloads[i]; bw.Name != d.name || bw.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, bw.Name, bw.Why, d.name, d.why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		better := "lower"
		if e.higher {
			better = "higher"
		}
		if b := bench.EndToEnd[i]; b.Name != e.name || b.Unit != e.unit || b.Better != better || b.Bound != e.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, b, e)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bench.PerLayer), len(perLayer))
	}
	for i, p := range perLayer {
		if b := bench.PerLayer[i]; b.Name != p.name || b.Unit != p.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, b, p)
		}
	}
}

// TestDriverLine checks the result line the benchmark driver parses.
func TestDriverLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--short", "--workload", "rack-reactive", "--seed", "2", "--seconds", "1", "--trace", trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exited %d:\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: result line has keys %v, want exactly correct, attempted, failed, metrics", trace, line)
		}
		var parsed contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if trace == "1" {
			want = len(perLayer)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 || len(parsed.Metrics) != want {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d metrics=%d, want true, >=1, 0, %d",
				trace, parsed.Correct, parsed.Attempted, parsed.Failed, len(parsed.Metrics), want)
		}
	}
}

// TestInputsPinned requires a pinned digest for every workload at seeds 1
// and 2 (full size) and at the smoke size's seed 1.
func TestInputsPinned(t *testing.T) {
	pinned, err := expected.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadDefs(false) {
		for _, c := range []struct {
			short bool
			seed  int64
		}{{false, 1}, {false, 2}, {true, 1}} {
			if _, ok := pinned.Digest(c.short, c.seed, d.name); !ok {
				t.Errorf("%s: no pinned input digest for short=%v seed %d", d.name, c.short, c.seed)
			}
		}
	}
	res := &Result{Workload: "rack-cocg", InputDigest: "not the pinned digest"}
	checkInputs(res, options{seed: 1}, pinned)
	if len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "inputs changed") {
		t.Errorf("a drifted input digest must be reported as inputs changed, got %v", res.Problems)
	}
}

func TestCompare(t *testing.T) {
	row := func(digest string, rate, fps float64) Document {
		return Document{Workloads: []WorkloadRecord{{
			Name: "rack-cocg", InputDigest: digest, OutputDigest: "digested", Correct: true,
			EndToEnd: Metrics{
				"session_seconds_per_s": {Value: rate, Unit: "1/s"},
				"fps_ratio_mean":        {Value: fps, Unit: "fraction"},
			},
		}}}
	}
	cases := []struct {
		name     string
		old, new Document
		bad      bool
		want     string
	}{
		{"same", row("a", 1000, 0.99), row("a", 1000, 0.99), false, "within bound"},
		{"slower within bound", row("a", 1000, 0.99), row("a", 950, 0.99), false, "within bound"},
		{"slower", row("a", 1000, 0.99), row("a", 700, 0.99), true, "regressed"},
		{"faster", row("a", 1000, 0.99), row("a", 1300, 0.99), false, "better"},
		{"quality moved", row("a", 1000, 0.99), row("a", 1000, 0.98), true, "regressed"},
		{"other inputs", row("a", 1000, 0.99), row("b", 1000, 0.99), true, "refused"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if bad := compareDocuments(c.old, c.new, &out); bad != c.bad || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: bad=%v, want %v with %q in:\n%s", c.name, bad, c.bad, c.want, out.String())
		}
	}
	noisy := row("a", 1000, 0.99)
	noisy.Workloads[0].EndToEnd["session_seconds_per_s"] = Metric{Value: 1000, Unit: "1/s", Samples: []float64{600, 800, 1000, 1200, 1400}}
	var out bytes.Buffer
	if bad := compareDocuments(noisy, row("a", 700, 0.99), &out); bad || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, got bad=%v:\n%s", bad, out.String())
	}
}

// TestSpreadMatchesPythonQuantiles pins the quartile method to the one the
// benchmark contract uses: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
