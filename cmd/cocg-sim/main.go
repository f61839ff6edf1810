// Command cocg-sim runs a datacenter-scale co-location simulation: a mixed
// arrival stream of all five games over an N-server cluster under a chosen
// scheduling policy, reporting throughput and QoS.
//
// Usage:
//
//	cocg-sim [-servers N] [-hours H] [-rate R] [-policy cocg|vbp|gaugur|reactive|all]
//	         [-seed S] [-bundle FILE] [-sessions N]
//
// The arrival schedule is pregenerated and the cluster runs it on one
// goroutine, stopping the fleet only at frame boundaries where placement can
// happen; -sessions pre-submits N arrivals at t=0 for large-population runs.
// -servers must be at least 1, -hours finite and positive, -rate finite and
// non-negative, and -sessions non-negative.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/persist"
	"cocg/internal/platform"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cocg-sim: %v\n", err)
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
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cocg-sim", flag.ExitOnError)
	servers := fs.Int("servers", 4, "number of game servers")
	hours := fs.Float64("hours", 1, "simulated duration in hours")
	rate := fs.Float64("rate", 0.02, "mean arrivals per simulated second")
	policy := fs.String("policy", "cocg", "scheduling policy: cocg, vbp, gaugur, reactive, all")
	seed := fs.Int64("seed", 1, "random seed")
	bundle := fs.String("bundle", "", "load a pre-trained system from this cocg-train bundle instead of training")
	sessions := fs.Int("sessions", 0, "arrivals pre-submitted at t=0 (round-robin over the mix), on top of the stream")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []core.PolicyKind
	if *policy == "all" {
		selected = core.AllPolicies()
	} else if k, ok := core.PolicyByName(*policy); ok {
		selected = []core.PolicyKind{k}
	} else {
		return usageError(fmt.Sprintf("unknown policy %q", *policy))
	}
	usage := func(format string, v any) error { return usageError(fmt.Sprintf(format, v)) }
	if *servers < 1 {
		return usage("-servers must be at least 1, got %v", *servers)
	}
	if !(*hours > 0) || math.IsInf(*hours, 0) {
		return usage("-hours must be finite and positive, got %v", *hours)
	}
	if *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		return usage("-rate must be finite and non-negative, got %v", *rate)
	}
	if *sessions < 0 {
		return usage("-sessions must be non-negative, got %v", *sessions)
	}

	start := time.Now()
	var sys *core.System
	var err error
	if *bundle != "" {
		fmt.Fprintf(stdout, "loading pre-trained system from %s...\n", *bundle)
		sys, err = persist.LoadFile(*bundle)
	} else {
		fmt.Fprintln(stdout, "training the five-game system (offline pass)...")
		sys, err = core.Train(gamesim.AllGames(), core.TrainOptions{Seed: *seed})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "system ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	horizon := simclock.Seconds(*hours * 3600)
	for _, kind := range selected {
		c := sys.NewCluster(*servers, kind)
		gen := sys.Generator(*seed + 7)
		stream := workload.NewMixStream(gen, gamesim.AllGames(), *rate, *seed+11)
		mix := gamesim.AllGames()
		for i := 0; i < *sessions; i++ {
			c.Submit(gen.Next(mix[i%len(mix)]))
		}
		t0 := time.Now()
		if err := c.RunEvented(horizon, stream.Schedule(0, horizon)); err != nil {
			return err
		}
		recs := c.Records()
		byGame := map[string][]platform.Record{}
		for _, r := range recs {
			byGame[r.Game] = append(byGame[r.Game], r)
		}
		fmt.Fprintf(stdout, "policy=%s servers=%d horizon=%s (ran in %v)\n",
			kind, *servers, horizon, time.Since(t0).Round(time.Millisecond))
		fmt.Fprintf(stdout, "  throughput (Eq. 2): %.0f   still running: %d   pending: %d\n",
			platform.Throughput(recs, nil), c.RunningSessions(), len(c.Pending))
		fmt.Fprintf(stdout, "  QoS: %s\n", platform.Summarize(recs))
		// Uncontended server-seconds granted every session its demand as asked;
		// the rest met a request cap, the regulator or the server's capacity.
		var ticks, uncontended uint64
		for _, srv := range c.Servers {
			s, u := srv.TickCounts()
			ticks, uncontended = ticks+s, uncontended+u
		}
		fmt.Fprintf(stdout, "  ticks: %d server-seconds, %.1f %% uncontended\n",
			ticks, 100*float64(uncontended)/float64(max(ticks, 1)))
		names := make([]string, 0, len(byGame))
		for g := range byGame {
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			q := platform.Summarize(byGame[g])
			fmt.Fprintf(stdout, "    %-15s runs=%-3d fps=%5.1f%%  p5fps=%5.1f  degraded=%4.1f%%\n",
				g, q.Sessions, 100*q.MeanFPSRatio, q.MeanP5FPS, 100*q.MeanDegraded)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
