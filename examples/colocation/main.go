// Colocation: the Fig. 9 scenario as a narrated timeline. Genshin Impact
// and DOTA2 share one server under the CoCG policy; the program prints the
// complementary utilization pattern, the distributor's admission decisions,
// and the regulator's loading-time stealing.
package main

import (
	"fmt"
	"log"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

func main() {
	fmt.Println("## Genshin Impact + DOTA2 on one server under CoCG")
	sys, err := core.Train(
		[]*gamesim.GameSpec{gamesim.GenshinImpact(), gamesim.DOTA2()},
		core.TrainOptions{Players: 10, SessionsPerPlayer: 4, Seed: 7},
	)
	if err != nil {
		log.Fatal(err)
	}

	cluster := sys.NewCluster(1, core.PolicyCoCG)
	cluster.StarveLimit = 5 * simclock.Minute
	gen := sys.Generator(99)
	stream := &workload.PairStream{Gen: gen, A: gamesim.GenshinImpact(), B: gamesim.DOTA2()}

	srv := cluster.Servers[0]
	lastHosted := -1
	const horizon = simclock.Hour
	for i := simclock.Seconds(0); i < horizon; i++ {
		stream.Feed(cluster)
		cluster.Tick()

		// Narrate placement changes.
		if n := srv.NumHosted(); n != lastHosted {
			names := ""
			for _, h := range srv.Hosted {
				names += h.Spec.Name + "  "
			}
			fmt.Printf("t=%-8s hosted=%d  %s\n", cluster.Clock.Now(), n, names)
			lastHosted = n
		}
		// Sample the utilization split once a minute.
		if i%simclock.Minute == 0 && srv.NumHosted() > 0 {
			total := srv.Utilization()
			fmt.Printf("t=%-8s total=%5.1f%%  ", cluster.Clock.Now(), total.Dominant())
			for _, h := range srv.Hosted {
				state := "exec"
				if h.Controller.Loading() {
					state = "load"
				}
				fmt.Printf("[%s %s %4.1f%%] ", h.Spec.Name, state, h.Granted.Dominant())
			}
			fmt.Println()
		}
	}

	recs := cluster.Records()
	fmt.Printf("\ncompleted sessions: %d\n", len(recs))
	var stolen float64
	for _, r := range recs {
		fmt.Printf("  %-15s ran %-8s fps=%5.1f (%.0f%% of best) degraded=%.1f%% loading stretched %.0fs\n",
			r.Game, r.Elapsed, r.AvgFPS, 100*r.FPSRatio, 100*r.Degraded, r.LoadStolen)
		stolen += r.LoadStolen
	}
	fmt.Printf("\n%s\n", platform.Summarize(recs))
	fmt.Printf("peak combined utilization: %.1f%%; loading time stolen in total: %.0f s\n",
		srv.PeakUtilization().Dominant(), stolen)
}
