// Command cocg-client plays one cloud-game session against a cocg-server
// and reports the player-side experience (Fig. 1's client end).
//
// Usage:
//
//	cocg-client [-addr host:port] [-script N] [-timeout 2m] <game>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cocg/internal/netmodel"
	"cocg/internal/streaming"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9555", "server address")
	script := flag.Int("script", 0, "script index to play")
	timeout := flag.Duration("timeout", 2*time.Minute, "session timeout")
	link := flag.String("link", "", "simulate a last-mile network: fiber, cable, or mobile")
	flag.Parse()

	var nl *netmodel.Link
	switch strings.ToLower(*link) {
	case "":
	case "fiber":
		nl = netmodel.FiberLink(time.Now().UnixNano())
	case "cable":
		nl = netmodel.CableLink(time.Now().UnixNano())
	case "mobile":
		nl = netmodel.MobileLink(time.Now().UnixNano())
	default:
		fmt.Fprintf(os.Stderr, "cocg-client: unknown link profile %q\n", *link)
		os.Exit(2)
	}

	game := strings.Join(flag.Args(), " ")
	if game == "" {
		fmt.Fprintln(os.Stderr, "usage: cocg-client [flags] <game>")
		os.Exit(2)
	}

	fmt.Printf("connecting to %s to play %s (script %d)...\n", *addr, game, *script)
	stats, err := streaming.Play(*addr, streaming.ClientConfig{
		Game: game, Script: *script, Timeout: *timeout, Link: nl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("session %d finished: played %d s of virtual time\n",
		stats.SessionID, stats.Final.DurationSec)
	if stats.SeqGaps > 0 {
		fmt.Printf("  drops:  %d sequence gaps (server coalesced or dropped batches under backpressure)\n", stats.SeqGaps)
	}
	fmt.Printf("  stream: %d frame batches, mean %.1f FPS, %.0f kbps, %d s of loading screens\n",
		stats.Frames, stats.MeanFPS, stats.MeanBitrate, stats.LoadingSec)
	fmt.Printf("  QoS:    %.0f%% of best FPS, degraded %.1f%% of play, input RTT %.1f ms\n",
		100*stats.Final.FPSRatio, 100*stats.Final.Degraded, stats.MeanRTTMS)
	if nl != nil {
		fmt.Printf("  net:    mean delivery %.1f ms (worst %.1f), stutter rate %.1f%%, lost %d\n",
			stats.Net.MeanLatencyMS(), stats.Net.WorstLatencyMS(),
			100*stats.Net.StutterRate(), stats.Net.Lost)
	}
}
