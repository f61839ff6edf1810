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
// -rate must be finite and non-negative.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/persist"
	"cocg/internal/platform"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

func main() {
	servers := flag.Int("servers", 4, "number of game servers")
	hours := flag.Float64("hours", 1, "simulated duration in hours")
	rate := flag.Float64("rate", 0.02, "mean arrivals per simulated second")
	policy := flag.String("policy", "cocg", "scheduling policy: cocg, vbp, gaugur, reactive, all")
	seed := flag.Int64("seed", 1, "random seed")
	bundle := flag.String("bundle", "", "load a pre-trained system from this cocg-train bundle instead of training")
	sessions := flag.Int("sessions", 0, "arrivals pre-submitted at t=0 (round-robin over the mix), on top of the stream")
	flag.Parse()

	kinds := map[string]core.PolicyKind{
		"cocg": core.PolicyCoCG, "vbp": core.PolicyVBP,
		"gaugur": core.PolicyGAugur, "reactive": core.PolicyReactive,
	}
	var selected []core.PolicyKind
	if *policy == "all" {
		selected = core.AllPolicies()
	} else if k, ok := kinds[strings.ToLower(*policy)]; ok {
		selected = []core.PolicyKind{k}
	} else {
		fmt.Fprintf(os.Stderr, "cocg-sim: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		fmt.Fprintf(os.Stderr, "cocg-sim: -rate must be finite and non-negative, got %v\n", *rate)
		os.Exit(2)
	}

	start := time.Now()
	var sys *core.System
	var err error
	if *bundle != "" {
		fmt.Printf("loading pre-trained system from %s...\n", *bundle)
		sys, err = persist.LoadFile(*bundle)
	} else {
		fmt.Println("training the five-game system (offline pass)...")
		sys, err = core.Train(gamesim.AllGames(), core.TrainOptions{Seed: *seed})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("system ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	horizon := simclock.Seconds(*hours * 3600)
	for _, kind := range selected {
		c := sys.NewCluster(*servers, kind)
		c.StarveLimit = 5 * simclock.Minute
		gen := sys.Generator(*seed + 7)
		stream := workload.NewMixStream(gen, gamesim.AllGames(), *rate, *seed+11)
		mix := gamesim.AllGames()
		for i := 0; i < *sessions; i++ {
			c.Submit(gen.Next(mix[i%len(mix)]))
		}
		t0 := time.Now()
		if err := c.RunEvented(horizon, stream.Schedule(0, horizon)); err != nil {
			fmt.Fprintln(os.Stderr, "cocg-sim:", err)
			os.Exit(1)
		}
		recs := c.Records()
		type agg struct {
			n             int
			fps, p5, degr float64
		}
		byGame := map[string]*agg{}
		for _, r := range recs {
			a := byGame[r.Game]
			if a == nil {
				a = &agg{}
				byGame[r.Game] = a
			}
			a.n++
			a.fps += r.FPSRatio
			a.p5 += r.P5FPS
			a.degr += r.Degraded
		}
		fmt.Printf("policy=%s servers=%d horizon=%s (ran in %v)\n",
			kind, *servers, horizon, time.Since(t0).Round(time.Millisecond))
		fmt.Printf("  throughput (Eq. 2): %.0f   still running: %d   pending: %d\n",
			platform.Throughput(recs, nil), c.RunningSessions(), len(c.Pending))
		fmt.Printf("  QoS: %s\n", platform.Summarize(recs))
		// Uncontended server-seconds granted every session its demand as asked;
		// the rest met a request cap, the regulator or the server's capacity.
		var ticks, uncontended uint64
		for _, srv := range c.Servers {
			s, u := srv.TickCounts()
			ticks, uncontended = ticks+s, uncontended+u
		}
		fmt.Printf("  ticks: %d server-seconds, %.1f %% uncontended\n",
			ticks, 100*float64(uncontended)/float64(max(ticks, 1)))
		names := make([]string, 0, len(byGame))
		for g := range byGame {
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			a := byGame[g]
			n := float64(a.n)
			fmt.Printf("    %-15s runs=%-3d fps=%5.1f%%  p5fps=%5.1f  degraded=%4.1f%%\n",
				g, a.n, 100*a.fps/n, a.p5/n, 100*a.degr/n)
		}
		fmt.Println()
	}
}
