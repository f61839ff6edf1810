// Command cocg-profile runs the offline frame-grained profiling pass
// (Section IV-A) for one game and prints its frame clusters, stage-type
// catalog, and an SSE sweep for cluster-count selection.
//
// Usage:
//
//	cocg-profile [-seed N] [-players N] [-k K] [-sweep] <game>
//
// Game names: DOTA2, CSGO, "Genshin Impact", "Devil May Cry", Contra.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cocg/internal/cluster"
	"cocg/internal/gamesim"
	"cocg/internal/profiler"
	"cocg/internal/profiling"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/tracefile"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	players := flag.Int("players", 6, "players per script in the profiling corpus")
	k := flag.Int("k", 0, "number of frame clusters (0 = elbow selection)")
	sweep := flag.Bool("sweep", false, "print the SSE-vs-K sweep (Fig. 14)")
	specPath := flag.String("spec", "", "profile a custom game described by this JSON spec file instead of a built-in game")
	saveTraces := flag.String("save-traces", "", "also save the recorded traces into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *players < 1 {
		fmt.Fprintf(os.Stderr, "cocg-profile: -players must be at least 1, got %d\n", *players)
		os.Exit(2)
	}
	if *k < 0 || *k > profiler.MaxClusters {
		fmt.Fprintf(os.Stderr, "cocg-profile: -k must be 0 (elbow selection) or 1..%d, got %d\n", profiler.MaxClusters, *k)
		os.Exit(2)
	}

	stopProfiles, perr := profiling.Start(*cpuProfile, *memProfile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	// die stops the profilers (so partial profiles still flush) and exits.
	die := func(code int, v any) {
		fmt.Fprintln(os.Stderr, v)
		_ = stopProfiles()
		os.Exit(code)
	}

	var spec *gamesim.GameSpec
	var err error
	if *specPath != "" {
		f, ferr := os.Open(*specPath)
		if ferr != nil {
			die(2, ferr)
		}
		spec, err = gamesim.LoadSpec(f)
		_ = f.Close() // read-only file; a LoadSpec error dominates
	} else {
		name := strings.Join(flag.Args(), " ")
		if name == "" {
			die(2, "usage: cocg-profile [flags] <game>  (or -spec file.json)")
		}
		spec, err = gamesim.GameByName(name)
	}
	if err != nil {
		die(2, err)
	}

	fmt.Printf("profiling %s (%s, %d scripts, %d players per script)\n",
		spec.Name, spec.Category, len(spec.Scripts), *players)
	traces, err := gamesim.RecordCorpus(spec, *players, *seed)
	if err != nil {
		die(1, err)
	}
	var frameCount int
	for _, tr := range traces {
		frameCount += len(tr.Frames)
	}
	fmt.Printf("recorded %d traces, %d frames (%s of play)\n",
		len(traces), frameCount, simclock.Seconds(frameCount*int(simclock.FrameLen)))
	if *saveTraces != "" {
		paths, err := tracefile.SaveAll(traces, *saveTraces)
		if err != nil {
			die(1, err)
		}
		fmt.Printf("saved %d trace files under %s\n", len(paths), *saveTraces)
	}

	if *sweep {
		var frames []resources.Vector
		for _, tr := range traces {
			frames = append(frames, tr.FrameVectors()...)
		}
		curve, err := cluster.Sweep(frames, 8, *seed, 0)
		if err != nil {
			die(1, err)
		}
		fmt.Println("\nSSE sweep (Fig. 14):")
		for _, p := range curve {
			fmt.Printf("  K=%d  SSE=%.0f\n", p.K, p.SSE)
		}
		fmt.Printf("  elbow: K=%d\n", cluster.Elbow(curve, 0.06))
	}

	prof, err := profiler.Build(traces, profiler.Config{K: *k, Seed: *seed})
	if err != nil {
		die(1, err)
	}
	fmt.Printf("\nframe clusters (K=%d, loading cluster %d):\n", prof.Clusters.K(), prof.LoadingClusterID)
	for i, c := range prof.Clusters.Centroids {
		mark := ""
		if i == prof.LoadingClusterID {
			mark = "  <- loading"
		}
		fmt.Printf("  cluster %d: %s%s\n", i, c, mark)
	}
	fmt.Printf("\nstage-type catalog (%d types):\n", prof.NumStageTypes())
	for _, s := range prof.Catalog {
		kind := "exec"
		if s.Loading {
			kind = "load"
		}
		fmt.Printf("  stage %d [%s] clusters={%s} seen %d times, mean %.0f s, peak %s\n",
			s.ID, kind, profiler.Key(s.ClusterSet), s.Count,
			s.MeanDurFrames*float64(simclock.FrameLen), s.Peak)
	}
	fmt.Printf("\ngame peak demand M: %s\n", prof.PeakDemand())
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
