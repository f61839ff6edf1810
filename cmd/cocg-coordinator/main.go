// Command cocg-coordinator runs the fleet control plane: it fronts N
// cocg-server clusters (regions/zones), health-checks each over the
// streaming wire protocol, routes every arriving session to the cluster with
// the best predicted-headroom/latency trade-off, fails sessions over when a
// region goes down, and serves fleet-wide aggregated metrics.
//
// Usage:
//
//	cocg-coordinator -clusters "us-east=127.0.0.1:9555@12,eu-west=127.0.0.1:9565@85" \
//	                 [-addr :9500] [-metrics :9501] [-probe 500ms] [-down-after 2]
//
// Each -clusters entry is "name=addr@latencyMS": the address of a running
// cocg-server plus the simulated user→region round-trip the routing score
// charges for it ("name=" and "@latencyMS" are optional). Clients and the
// load generator connect to -addr exactly as they would to a single
// cocg-server; the Accept they receive carries the chosen region in its
// "cluster" field. The probes pull each cluster's extended load summary
// (mean headroom, idle/draining server counts, and the per-game predicted
// demand breakdown the incremental fleet accountant maintains), and -metrics
// re-exports it per cluster alongside summary staleness and probe-failure
// counters. See docs/FLEET.md for the routing policy, failover semantics,
// metrics reference, and a 4-cluster local runbook.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"cocg/internal/coordinator"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9500", "session listen address")
	metricsAddr := flag.String("metrics", "", "serve fleet /metrics and /status on this address (e.g. :9501)")
	clusters := flag.String("clusters", "", `comma-separated fleet: "name=addr@latencyMS,..."`)
	probe := flag.Duration("probe", 500*time.Millisecond, "cluster summary-feed refresh period")
	downAfter := flag.Int("down-after", 2, "consecutive probe failures that mark a cluster down")
	latWeight := flag.Float64("latency-weight", 0, "routing score cost of the reference latency at full sensitivity (0 = default 0.5)")
	verbose := flag.Bool("v", false, "log routing state transitions and failovers")
	flag.Parse()

	specs, err := parseClusters(*clusters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cocg-coordinator:", err)
		os.Exit(2)
	}

	cfg := coordinator.Config{
		Clusters:   specs,
		ProbeEvery: *probe,
		DownAfter:  *downAfter,
		Weights:    coordinator.RouteWeights{Latency: *latWeight},
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	co, err := coordinator.Serve(*addr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cocg-coordinator:", err)
		os.Exit(1)
	}
	fmt.Printf("%s — ctrl-c to stop\n", co)
	for _, cs := range specs {
		fmt.Printf("  cluster %-12s %s (%.0f ms)\n", cs.Name, cs.Addr, cs.LatencyMS)
	}
	if *metricsAddr != "" {
		go func() {
			fmt.Printf("fleet metrics on http://%s/metrics\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, co.MetricsHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down...")
	if err := co.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
}

// parseClusters parses the -clusters flag: comma-separated "name=addr@latMS"
// entries where "name=" and "@latMS" are optional.
func parseClusters(s string) ([]coordinator.ClusterSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-clusters is required (e.g. -clusters \"us=127.0.0.1:9555@10,eu=127.0.0.1:9565@80\")")
	}
	var out []coordinator.ClusterSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var cs coordinator.ClusterSpec
		if name, rest, ok := strings.Cut(entry, "="); ok {
			cs.Name = strings.TrimSpace(name)
			entry = rest
		}
		if addr, lat, ok := strings.Cut(entry, "@"); ok {
			ms, err := strconv.ParseFloat(strings.TrimSpace(lat), 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("bad latency in cluster entry %q", entry)
			}
			cs.LatencyMS = ms
			entry = addr
		}
		cs.Addr = strings.TrimSpace(entry)
		if cs.Addr == "" {
			return nil, fmt.Errorf("cluster entry with empty address")
		}
		out = append(out, cs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no clusters in %q", s)
	}
	return out, nil
}
