// Datacenter: a mixed stream of all five games over a multi-server cluster,
// comparing every scheduling policy on the same workload — the scaled-up
// version of the paper's evaluation (Section IV-D argues the approach
// extends to larger servers unchanged).
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
	const (
		servers = 4
		horizon = simclock.Hour
		rate    = 0.03 // mean arrivals per second
	)
	fmt.Printf("## %d-server datacenter, mixed five-game stream, %s\n\n", servers, horizon)

	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	for _, kind := range core.AllPolicies() {
		c := sys.NewCluster(servers, kind)
		gen := sys.Generator(31)
		stream := workload.NewMixStream(gen, gamesim.AllGames(), rate, 77)
		if err := c.RunEvented(horizon, stream.Schedule(0, horizon)); err != nil {
			log.Fatal(err)
		}
		recs := c.Records()
		byGame := map[string]int{}
		for _, r := range recs {
			byGame[r.Game]++
		}
		fmt.Printf("%-9s throughput=%8.0f  completions=%v\n", kind, platform.Throughput(recs, nil), byGame)
		fmt.Printf("          %s\n", platform.Summarize(recs))
		// Per-server peak utilization shows how well the policy packs.
		fmt.Print("          peak util per server:")
		for _, s := range c.Servers {
			fmt.Printf(" %5.1f%%", s.PeakUtilization().Dominant())
		}
		fmt.Print("\n\n")
	}
}
