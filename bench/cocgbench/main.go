// Command cocgbench is the repository's end-to-end benchmark: four named
// workloads, seven end-to-end metrics measured with tracing off, and a traced
// pass that attributes the time to layers. See ../README.md.
//
//	go run ./bench/cocgbench                      every workload, both passes, one JSON document
//	go run ./bench/cocgbench -workload rack-cocg  one workload, both passes
//	go run ./bench/cocgbench -compare old.json new.json
//
// The benchmark driver runs one pass of one workload per process:
//
//	cocgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"cocg/bench/expected"
)

// options shapes one pass of one workload.
type options struct {
	seed    int64
	seconds float64 // how long the pass measures
	short   bool    // smoke-test sizes
	setups  int     // how many times set-up is repeated; setup_s is the median
	minReps int     // reps of a simulation workload, however short the run
	tr      *tracer // where a traced pass keeps its spans
}

// Result is one pass of one workload.
type Result struct {
	Workload     string
	Seed         int64
	InputDigest  string
	OutputDigest string
	Attempted    int
	Failed       int
	Problems     []string // output checks that failed
	Metrics      Metrics
}

// workloadDef names a workload, says why it is in the benchmark, and binds
// its two passes.
type workloadDef struct {
	name     string
	why      string
	endToEnd func(options) (*Result, error)
	traced   func(options) (*Result, error)
}

var workloadWhys = map[string]string{
	"rack-cocg":     "the paper's scale, a 32-server rack under CoCG below saturation: tick-dominated, so a CoCG bulk path shows here",
	"fleet-cocg":    "1024 saturated servers under CoCG with a summary poll per frame: placement scan, forecast caches and accountant dominate",
	"rack-reactive": "rack-cocg's exact arrivals under the reactive baseline: no predictor and no scan, so a CoCG-only change predicts no change",
	"serve-fleet":   "closed-loop sessions over loopback TCP through coordinator and streaming servers: the only workload crossing the serving tiers",
}

func workloadDefs(short bool) []workloadDef {
	var defs []workloadDef
	for _, spec := range simSpecs {
		if short {
			spec = spec.shortened()
		}
		defs = append(defs, workloadDef{
			name:     spec.name,
			why:      workloadWhys[spec.name],
			endToEnd: func(o options) (*Result, error) { return simEndToEnd(spec, o) },
			traced:   func(o options) (*Result, error) { return simTraced(spec, o) },
		})
	}
	return append(defs, workloadDef{
		name: "serve-fleet", why: workloadWhys["serve-fleet"],
		endToEnd: serveEndToEnd, traced: serveTraced,
	})
}

// Document is what the document mode prints: every workload's two passes and
// where the record was taken.
type Document struct {
	Benchmark  string  `json:"benchmark"`
	Claim      *string `json:"claim"` // this benchmark claims no gain
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short,omitempty"`

	Workloads []WorkloadRecord `json:"workloads"`
}

// WorkloadRecord is one workload's row of the document.
type WorkloadRecord struct {
	Name         string   `json:"name"`
	Why          string   `json:"why"`
	InputDigest  string   `json:"input_digest"`
	OutputDigest string   `json:"output_digest,omitempty"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Correct      bool     `json:"correct"`
	Problems     []string `json:"problems,omitempty"`
	EndToEnd     Metrics  `json:"end_to_end"`
	PerLayer     Metrics  `json:"per_layer"`
}

// contractLine is the driver's result line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cocgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long each untraced pass measures")
	trace := fs.Int("trace", 0, "driver mode: run one pass of -workload, untraced (0) or traced (1), and print the result line")
	out := fs.String("out", "", "also write the JSON document to this file")
	spans := fs.String("spans", "", "write the traced passes' spans to this file")
	compare := fs.Bool("compare", false, "compare two documents: -compare old.json new.json")
	short := fs.Bool("short", false, "smoke-test sizes (seconds instead of minutes; numbers mean nothing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "cocgbench: -compare takes two files: old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	driverMode := false
	fs.Visit(func(f *flag.Flag) { driverMode = driverMode || f.Name == "trace" })

	defs := workloadDefs(*short)
	if *workload != "" {
		var picked []workloadDef
		for _, d := range defs {
			if d.name == *workload {
				picked = append(picked, d)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(stderr, "cocgbench: unknown workload %q\n", *workload)
			return 2
		}
		defs = picked
	}
	o := options{seed: *seed, seconds: *seconds, short: *short, setups: 11, minReps: 4}
	if *short {
		o.seconds, o.setups, o.minReps = 0, 1, 2
	}
	if *spans != "" {
		o.tr = newTracer()
	}
	pinned, err := expected.Load()
	if err != nil {
		fmt.Fprintln(stderr, "cocgbench:", err)
		return 1
	}

	code := 0
	if driverMode {
		if len(defs) != 1 {
			fmt.Fprintln(stderr, "cocgbench: -trace needs -workload")
			return 2
		}
		code = runDriver(defs[0], o, *trace == 1, pinned, stdout, stderr)
	} else {
		code = runDocument(defs, o, pinned, *out, stdout, stderr)
	}
	if *spans != "" {
		if err := writeJSON(*spans, o.tr.spans); err != nil {
			fmt.Fprintln(stderr, "cocgbench:", err)
			return 1
		}
	}
	return code
}

// checkInputs compares a pass's input digest with the pinned one, when the
// seed is pinned, so a drifting generator says so instead of silently
// measuring different work.
func checkInputs(res *Result, o options, pinned expected.Inputs) {
	want, ok := pinned.Digest(o.short, o.seed, res.Workload)
	if ok && want != res.InputDigest {
		res.Problems = append(res.Problems,
			fmt.Sprintf("inputs changed: %s seed %d digests to %s, bench/expected/inputs.json pins %s", res.Workload, o.seed, res.InputDigest, want))
	}
}

// runDriver runs one pass and prints the driver's result line last.
func runDriver(d workloadDef, o options, traced bool, pinned expected.Inputs, stdout, stderr io.Writer) int {
	pass := d.endToEnd
	var listed []string
	if traced {
		pass = d.traced
		for _, p := range perLayer {
			listed = append(listed, p.name)
		}
	} else {
		for _, e := range endToEnd {
			listed = append(listed, e.name)
		}
	}
	res, err := pass(o)
	if err != nil {
		fmt.Fprintln(stderr, "cocgbench:", err)
		return 1
	}
	checkInputs(res, o, pinned)
	line := contractLine{
		Correct: len(res.Problems) == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractMetric{},
	}
	for _, name := range listed {
		m, ok := res.Metrics[name]
		if !ok {
			continue
		}
		line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
		if len(m.Samples) > 0 {
			// The per-rep values behind a median, for whoever has to tell a
			// noisy host from a noisy harness.
			fmt.Fprintf(stderr, "cocgbench: %s samples %.6g\n", name, m.Samples)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "cocgbench: check failed:", p)
	}
	fmt.Fprintf(stderr, "cocgbench: %s seed %d input %s output %s\n", res.Workload, res.Seed, res.InputDigest, res.OutputDigest)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "cocgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// runDocument runs both passes of every chosen workload and prints one
// document.
func runDocument(defs []workloadDef, o options, pinned expected.Inputs, outPath string, stdout, stderr io.Writer) int {
	doc := Document{
		Benchmark: "cocgbench", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds, Short: o.short,
	}
	doc.Commit, doc.Dirty = gitState()
	code := 0
	for _, d := range defs {
		fmt.Fprintf(stderr, "cocgbench: %s untraced\n", d.name)
		e2e, err := d.endToEnd(o)
		if err != nil {
			fmt.Fprintln(stderr, "cocgbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "cocgbench: %s traced\n", d.name)
		layers, err := d.traced(o)
		if err != nil {
			fmt.Fprintln(stderr, "cocgbench:", err)
			return 1
		}
		checkInputs(e2e, o, pinned)
		if layers.InputDigest != e2e.InputDigest {
			e2e.Problems = append(e2e.Problems, "traced pass ran different inputs: "+layers.InputDigest)
		}
		rec := WorkloadRecord{
			Name: d.name, Why: d.why,
			InputDigest: e2e.InputDigest, OutputDigest: e2e.OutputDigest,
			Attempted: e2e.Attempted, Failed: e2e.Failed,
			Problems: append(e2e.Problems, layers.Problems...),
			EndToEnd: e2e.Metrics, PerLayer: layers.Metrics,
		}
		rec.Correct = len(rec.Problems) == 0
		for _, p := range rec.Problems {
			fmt.Fprintf(stderr, "cocgbench: %s: check failed: %s\n", d.name, p)
			code = 1
		}
		doc.Workloads = append(doc.Workloads, rec)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "cocgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if outPath != "" {
		if err := os.WriteFile(outPath, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "cocgbench:", err)
			return 1
		}
	}
	return code
}

// gitState reports the commit the record was taken at and whether the tree
// had uncommitted changes; outside a git checkout the commit is "unknown".
func gitState() (commit string, dirty bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err != nil || len(strings.TrimSpace(string(status))) > 0
}

func writeJSON(path string, v any) error {
	enc, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
