// Command cocg-loadgen drives a fleet of concurrent cocg-client sessions
// against a running cocg-server — or a cocg-coordinator fronting many of
// them — and reports the serving-path throughput the way a load-test harness
// would: admission rate, aggregate frame-batch throughput, the p50/p99
// inter-batch delivery latency seen by clients, and how many batches the
// server shed under backpressure.
//
// Usage:
//
//	cocg-loadgen [-addr host:port] [-n 64] [-c 32] [-game Contra] [-script -1]
//	             [-mix] [-timeout 2m]
//
// A -script of -1 rotates every session through the game's script list, so
// the offered load exercises all trained stage mixes. -mix is the fleet
// mode: sessions rotate through every registered game (ignoring -game), the
// offered load that exercises a coordinator's per-game routing weights. When
// the target is a coordinator, the summary additionally reports the routing
// distribution — how many sessions each cluster (region) served, as stamped
// in the Accept's "cluster" field.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cocg/internal/gamesim"
	"cocg/internal/parallel"
	"cocg/internal/stats"
	"cocg/internal/streaming"
)

// sessionResult is one finished (or failed) session's client-side record.
type sessionResult struct {
	stats *streaming.ClientStats
	gaps  []float64 // inter-batch arrival gaps, milliseconds
	err   error
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9555", "server address")
	n := flag.Int("n", 64, "total sessions to play")
	c := flag.Int("c", 32, "concurrent sessions in flight")
	game := flag.String("game", "Contra", "game to request")
	mix := flag.Bool("mix", false, "fleet mode: rotate sessions through every registered game (ignores -game)")
	script := flag.Int("script", -1, "script index; -1 rotates through the game's scripts")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-session timeout")
	flag.Parse()

	games := []*gamesim.GameSpec{}
	if *mix {
		games = gamesim.AllGames()
	} else {
		spec, err := gamesim.GameByName(*game)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cocg-loadgen:", err)
			os.Exit(2)
		}
		games = append(games, spec)
	}
	if *n <= 0 {
		fmt.Fprintln(os.Stderr, "cocg-loadgen: -n must be positive")
		os.Exit(2)
	}
	if *c < 1 {
		fmt.Fprintln(os.Stderr, "cocg-loadgen: -c must be positive")
		os.Exit(2)
	}

	offered := games[0].Name
	if *mix {
		offered = fmt.Sprintf("a %d-game mix", len(games))
	}
	fmt.Printf("cocg-loadgen: %d sessions of %s against %s (%d in flight)\n",
		*n, offered, *addr, *c)

	results := make([]sessionResult, *n)
	var inFlight, peak atomic.Int64
	grp := parallel.NewGroup(*c)
	start := time.Now()
	for i := 0; i < *n; i++ {
		i := i
		grp.Go(func() error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			defer inFlight.Add(-1)
			r := &results[i]
			spec := games[i%len(games)]
			sc := *script
			if sc < 0 {
				sc = (i / len(games)) % len(spec.Scripts)
			}
			var mu sync.Mutex
			var last time.Time
			r.stats, r.err = streaming.Play(*addr, streaming.ClientConfig{
				Game: spec.Name, Script: sc, Timeout: *timeout,
				OnFrames: func(f *streaming.FrameBatch) {
					now := time.Now()
					mu.Lock()
					if !last.IsZero() {
						r.gaps = append(r.gaps, float64(now.Sub(last))/float64(time.Millisecond))
					}
					last = now
					mu.Unlock()
				},
			})
			return nil // failures are reported in the summary, not fatal
		})
	}
	if err := grp.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "cocg-loadgen:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	var completed, rejected int
	var frames, drops int64
	var rttSum float64
	var rttN int
	var lat []float64
	var firstErr error
	byCluster := map[string]int{}
	for _, r := range results {
		if r.err != nil {
			rejected++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		completed++
		frames += int64(r.stats.Frames)
		drops += int64(r.stats.SeqGaps)
		if r.stats.MeanRTTMS > 0 {
			rttSum += r.stats.MeanRTTMS
			rttN++
		}
		if r.stats.Cluster != "" {
			byCluster[r.stats.Cluster]++
		}
		lat = append(lat, r.gaps...)
	}

	fmt.Printf("finished in %.2f s (peak %d sessions in flight)\n", elapsed.Seconds(), peak.Load())
	fmt.Printf("  sessions: %d completed, %d failed — %.2f sessions/sec\n",
		completed, rejected, float64(completed)/elapsed.Seconds())
	if firstErr != nil {
		fmt.Printf("  (first failure: %v)\n", firstErr)
	}
	fmt.Printf("  frames:   %d batches — %.0f frames/sec aggregate\n",
		frames, float64(frames)/elapsed.Seconds())
	if len(lat) > 0 {
		q := stats.Percentiles(lat, 50, 99)
		fmt.Printf("  delivery: p50 %.2f ms, p99 %.2f ms between batches\n", q[0], q[1])
	}
	if rttN > 0 {
		fmt.Printf("  input:    mean RTT %.1f ms across %d sessions\n", rttSum/float64(rttN), rttN)
	}
	fmt.Printf("  drops:    %d sequence gaps (batches coalesced or dropped under backpressure)\n", drops)
	if len(byCluster) > 0 {
		names := make([]string, 0, len(byCluster))
		for name := range byCluster {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", name, byCluster[name]))
		}
		fmt.Printf("  routing:  %s\n", strings.Join(parts, " "))
	}
	if completed == 0 {
		os.Exit(1)
	}
}
