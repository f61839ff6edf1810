// Command cocg-train runs the one-time offline pass (profiling corpus, frame
// clustering, stage catalogs, predictor training) for the five-game suite
// and writes the trained system to a bundle file that cocg-sim and
// cocg-server can load without retraining — the paper's "profiling and model
// training only need to be performed once" made literal.
//
// Usage:
//
//	cocg-train [-o system.cocg.gz] [-players N] [-sessions N] [-seed S]
//	           [-jobs N] [-cpuprofile cpu.out] [-memprofile mem.out] [game ...]
//
// The trained bundle is a pure function of the corpus parameters and -seed.
// -jobs bounds how many games train at once; each game trains on one
// goroutine, so -jobs never changes the result, and a profile taken at
// -jobs 1 measures the same training the production pass performs.
// -players and -sessions must be at least 1, and a game may be named once.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/parallel"
	"cocg/internal/persist"
	"cocg/internal/profiling"
)

func main() {
	out := flag.String("o", "system.cocg.gz", "output bundle path")
	players := flag.Int("players", 12, "players per game in the profiling corpus")
	sessions := flag.Int("sessions", 4, "sessions per player")
	seed := flag.Int64("seed", 1, "random seed")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"max games training at once; the trained bundle does not depend on it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *players < 1 || *sessions < 1 {
		fmt.Fprintf(os.Stderr, "cocg-train: -players and -sessions must be at least 1, got %d and %d\n", *players, *sessions)
		os.Exit(2)
	}

	stopProfiles, perr := profiling.Start(*cpuProfile, *memProfile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(2)
	}
	// die stops the profilers (so partial profiles still flush) and exits.
	die := func(code int, v any) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Fprintln(os.Stderr, v)
		os.Exit(code)
	}

	specs := gamesim.AllGames()
	if flag.NArg() > 0 {
		specs = specs[:0]
		for _, name := range flag.Args() {
			g, err := gamesim.GameByName(name)
			if err != nil {
				die(2, err)
			}
			specs = append(specs, g)
		}
	}

	start := time.Now()
	fmt.Printf("training %d games (%d players x %d sessions each, %d workers)...\n",
		len(specs), *players, *sessions, parallel.Workers(*jobs))
	sys, err := core.Train(specs, core.TrainOptions{
		Players: *players, SessionsPerPlayer: *sessions, Seed: *seed, Workers: *jobs,
	})
	if err != nil {
		die(1, err)
	}
	for _, game := range sys.Games() {
		b, _ := sys.Bundle(game)
		fmt.Printf("  %-15s %d stage types, DTC accuracy %.0f%%, %d habit models\n",
			game, b.Profile.NumStageTypes(), 100*b.OfflineAccuracy, len(b.HabitModels))
	}
	if err := persist.SaveFile(sys, *out); err != nil {
		die(1, err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		die(1, err)
	}
	fmt.Printf("wrote %s (%d KiB) in %v\n", *out, info.Size()/1024, time.Since(start).Round(time.Millisecond))
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
