// Command cocg regenerates the paper's tables and figures on the simulated
// platform.
//
// Usage:
//
//	cocg [-seed N] [-fast] [-jobs N] [experiment ...]
//
// With no arguments it runs every experiment; -list prints their names.
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
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cocg/internal/experiments"
	"cocg/internal/export"
	"cocg/internal/parallel"
	"cocg/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cocg: %v\n", err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad command line: main exits 2 for it, as flag does.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the command: it parses args and writes the report to stdout. Bad
// flags exit the process with status 2, and -h with 0, as flag does.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("cocg", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed for the whole run")
	fast := fs.Bool("fast", false, "shrink corpora and durations for a quick smoke run")
	list := fs.Bool("list", false, "list experiment names and exit")
	csvDir := fs.String("csv", "", "also dump figure series as CSV files into this directory")
	charts := fs.Bool("charts", true, "render ASCII charts for figure series")
	jobs := fs.Int("jobs", runtime.NumCPU(),
		"max concurrent experiment jobs and training workers; results do not depend on it")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		names := make([]string, len(experiments.All))
		for i, e := range experiments.All {
			names[i] = e.Name
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, strings.Join(names, "\n"))
		return nil
	}

	targets := experiments.All
	if fs.NArg() > 0 {
		targets = nil
		for _, name := range fs.Args() {
			i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.Name == name })
			if i < 0 {
				return usageError(fmt.Sprintf("unknown experiment %q (try -list)", name))
			}
			targets = append(targets, experiments.All[i])
		}
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	// The profilers stop on every return, so partial profiles still flush.
	defer func() {
		if serr := stopProfiles(); err == nil {
			err = serr
		}
	}()

	start := time.Now()
	fmt.Fprintf(stdout, "CoCG experiment driver (seed=%d fast=%v jobs=%d)\n", *seed, *fast, parallel.Workers(*jobs))
	fmt.Fprintln(stdout, "training the five-game system (offline pass)...")
	ctx, err := experiments.NewContext(experiments.Options{Seed: *seed, Fast: *fast, Jobs: *jobs})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained in %v\n\n", time.Since(start).Round(time.Millisecond))

	err = runJobs(ctx, targets, *jobs, func(name string, res fmt.Stringer, took time.Duration) {
		fmt.Fprintf(stdout, "=== %s (%v) ===\n%s\n", name, took.Round(time.Millisecond), res)
		emitSeries(stdout, res, *charts, *csvDir)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runJobs runs the experiments, up to jobs at a time over the read-only
// context, and hands each result to show strictly in list order, so the
// output is byte-identical at every parallelism level (timing annotations
// aside). It returns the first failure in list order under its
// experiment's name; a panic is a failure. The jobs listed after a failed
// one are skipped, and runJobs returns only once no job is running.
func runJobs(ctx *experiments.Context, targets []experiments.Experiment, jobs int,
	show func(name string, res fmt.Stringer, took time.Duration)) error {
	results := make([]struct {
		res  fmt.Stringer
		err  error
		took time.Duration
		done chan struct{}
	}, len(targets))
	for i := range results {
		results[i].done = make(chan struct{})
	}
	var failedAt atomic.Int64 // the index of a failed job: later jobs are skipped
	failedAt.Store(int64(len(targets)))
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		parallel.For(jobs, len(targets), func(i int) {
			jr := &results[i]
			defer close(jr.done)
			if int64(i) > failedAt.Load() {
				return
			}
			defer func() {
				if v := recover(); v != nil {
					jr.err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
				}
				if jr.err != nil {
					failedAt.Store(int64(i))
				}
			}()
			t0 := time.Now()
			jr.res, jr.err = targets[i].Run(ctx)
			jr.took = time.Since(t0)
		})
	}()
	defer func() { <-ran }()
	for i, t := range targets {
		jr := &results[i]
		<-jr.done
		if jr.err != nil {
			return fmt.Errorf("%s: %w", t.Name, jr.err)
		}
		show(t.Name, jr.res, jr.took)
	}
	return nil
}

// emitSeries renders and/or saves the raw series behind plotted figures:
// the results with a Plot method.
func emitSeries(stdout io.Writer, res fmt.Stringer, charts bool, csvDir string) {
	p, ok := res.(interface{ Plot() []*export.Series })
	if !ok {
		return
	}
	for _, s := range p.Plot() {
		if s.Len() == 0 {
			continue
		}
		if charts {
			fmt.Fprintln(stdout, export.Chart(s, 72))
		}
		if csvDir != "" {
			path, err := s.SaveCSV(csvDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cocg: csv: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
}
