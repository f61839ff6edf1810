// Command cocg-server runs a GamingAnywhere-style streaming front end: it
// trains the CoCG system, hosts a scheduled game-server cluster, and accepts
// cocg-client connections over TCP (Fig. 1's cloud end).
//
// Usage:
//
//	cocg-server [-addr :9555] [-servers N] [-policy cocg|vbp|gaugur|reactive] [-speed X]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/persist"
	"cocg/internal/streaming"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9555", "listen address")
	servers := flag.Int("servers", 2, "backend game servers")
	policy := flag.String("policy", "cocg", "scheduling policy")
	speed := flag.Float64("speed", 100, "simulation speed: virtual seconds per real second, held on average (a late tick is caught up, up to 10 virtual seconds at once; seconds beyond that are skipped and counted in cocg_stream_ticks_skipped_total)")
	seed := flag.Int64("seed", 1, "random seed")
	bundle := flag.String("bundle", "", "load a pre-trained system from this cocg-train bundle instead of training")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /status on this address (e.g. :9556)")
	flag.Parse()

	kind, ok := core.PolicyByName(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "cocg-server: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	if *speed <= 0 {
		*speed = 1
	}

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

	srv, err := streaming.Serve(*addr, streaming.ServerConfig{
		System:      sys,
		Policy:      kind,
		Servers:     *servers,
		TickEvery:   time.Duration(float64(time.Second) / *speed),
		SessionSeed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s — %gx speed; ctrl-c to stop\n", srv, *speed)
	if *metricsAddr != "" {
		go func() {
			fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, srv.MetricsHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down...")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
}
