// Command cocg regenerates the paper's tables and figures on the simulated
// platform.
//
// Usage:
//
//	cocg [-seed N] [-fast] [-jobs N] [experiment ...]
//
// With no arguments it runs every experiment. Experiment names: table1,
// fig2, fig5, fig6, fig9, fig10, fig11, fig12, fig13, fig14, fig15, pairs,
// scaleout, online, ablation-category, ablation-redundancy, ablation-steal,
// ablation-interval, ablation-placement, ablation-clustering.
//
// Experiments are independent jobs: -jobs N runs up to N of them
// concurrently (and bounds the worker pool inside training and clustering).
// Results stream in the fixed presentation order regardless of completion
// order, and every experiment derives its randomness from -seed alone, so
// the output is identical at -jobs 1 and -jobs 64. The default is the CPU
// count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"cocg/internal/experiments"
	"cocg/internal/export"
	"cocg/internal/parallel"
	"cocg/internal/profiling"
)

type runner func(*experiments.Context) (fmt.Stringer, error)

// wraps adapts the concrete experiment signatures to a common runner type.
func wrap[T fmt.Stringer](f func(*experiments.Context) (T, error)) runner {
	return func(ctx *experiments.Context) (fmt.Stringer, error) {
		return f(ctx)
	}
}

var registry = map[string]runner{
	"table1":              wrap(experiments.TableI),
	"fig2":                wrap(experiments.Fig2),
	"fig5":                wrap(experiments.Fig5),
	"fig6":                wrap(experiments.Fig6),
	"fig9":                wrap(experiments.Fig9),
	"fig10":               wrap(experiments.Fig10),
	"fig11":               wrap(experiments.Fig11),
	"fig12":               wrap(experiments.Fig12),
	"fig13":               wrap(experiments.Fig13),
	"fig14":               wrap(experiments.Fig14),
	"fig15":               wrap(experiments.Fig15),
	"ablation-category":   wrap(experiments.CategoryAblation),
	"ablation-redundancy": wrap(experiments.RedundancyAblation),
	"ablation-steal":      wrap(experiments.LoadingStealAblation),
	"ablation-interval":   wrap(experiments.FrameIntervalAblation),
	"scaleout":            wrap(experiments.ScaleOut),
	"online":              wrap(experiments.OnlineLearning),
	"ablation-placement":  wrap(experiments.PlacementAblation),
	"pairs":               wrap(experiments.PairMatrix),
	"ablation-clustering": func(ctx *experiments.Context) (fmt.Stringer, error) {
		rows, err := experiments.GraphPartitionAblation(ctx)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		b.WriteString("Clustering method comparison (Section V-D1)\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %s\n", r)
		}
		return stringResult(b.String()), nil
	},
}

type stringResult string

func (s stringResult) String() string { return string(s) }

// order is the presentation order for "run everything".
var order = []string{
	"table1", "fig2", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "pairs", "scaleout", "online",
	"ablation-category", "ablation-redundancy", "ablation-steal",
	"ablation-interval", "ablation-placement", "ablation-clustering",
}

func main() {
	seed := flag.Int64("seed", 1, "random seed for the whole run")
	fast := flag.Bool("fast", false, "shrink corpora and durations for a quick smoke run")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also dump figure series as CSV files into this directory")
	charts := flag.Bool("charts", true, "render ASCII charts for figure series")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"max concurrent experiment jobs and training workers; results do not depend on it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = order
	}
	for _, t := range targets {
		if _, ok := registry[t]; !ok {
			fmt.Fprintf(os.Stderr, "cocg: unknown experiment %q (try -list)\n", t)
			os.Exit(2)
		}
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cocg: %v\n", err)
		os.Exit(1)
	}
	// fail stops the profilers (so partial profiles still flush) and exits.
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		_ = stopProfiles()
		os.Exit(1)
	}

	start := time.Now()
	fmt.Printf("CoCG experiment driver (seed=%d fast=%v jobs=%d)\n", *seed, *fast, parallel.Workers(*jobs))
	fmt.Println("training the five-game system (offline pass)...")
	ctx, err := experiments.NewContext(experiments.Options{Seed: *seed, Fast: *fast, Jobs: *jobs})
	if err != nil {
		fail("cocg: %v\n", err)
	}
	fmt.Printf("trained in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Experiments are independent jobs over the read-only context: run up
	// to -jobs of them concurrently, but print strictly in presentation
	// order so the output is byte-identical at every parallelism level
	// (timing annotations aside).
	type jobResult struct {
		res  fmt.Stringer
		err  error
		took time.Duration
		done chan struct{}
	}
	results := make([]*jobResult, len(targets))
	for i := range results {
		results[i] = &jobResult{done: make(chan struct{})}
	}
	g := parallel.NewGroup(*jobs)
	go func() {
		for i, t := range targets {
			i, t := i, t
			g.Go(func() error {
				t0 := time.Now()
				jr := results[i]
				jr.res, jr.err = registry[t](ctx)
				jr.took = time.Since(t0)
				close(jr.done)
				return jr.err
			})
		}
	}()
	for i, t := range targets {
		jr := results[i]
		<-jr.done
		if jr.err != nil {
			fail("cocg: %s: %v\n", t, jr.err)
		}
		fmt.Printf("=== %s (%v) ===\n%s\n", t, jr.took.Round(time.Millisecond), jr.res)
		emitSeries(jr.res, *charts, *csvDir)
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "cocg: %v\n", err)
		os.Exit(1)
	}
}

// emitSeries renders and/or saves the raw series behind plotted figures.
func emitSeries(res fmt.Stringer, charts bool, csvDir string) {
	var series []*export.Series
	switch r := res.(type) {
	case *experiments.Fig2Result:
		series = append(series, r.UtilSeries())
	case *experiments.Fig9Result:
		series = append(series, r.UtilSeries())
	case *experiments.Fig10Result:
		series = append(series, r.AllocSeries())
	case *experiments.Fig14Result:
		series = append(series, r.SSESeries()...)
	default:
		return
	}
	for _, s := range series {
		if s.Len() == 0 {
			continue
		}
		if charts {
			fmt.Println(export.Chart(s, 72))
		}
		if csvDir != "" {
			path, err := s.SaveCSV(csvDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cocg: csv: %v\n", err)
				continue
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}
