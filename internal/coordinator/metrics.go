package coordinator

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cocg/internal/streaming"
)

// MetricsHandler returns an http.Handler exposing the fleet's operational
// state: Prometheus-style text at /metrics and a JSON snapshot at /status.
// Everything a single cluster exposes stays on that cluster's own endpoint;
// this one carries what only the coordinator knows — routing decisions,
// failovers, per-cluster health, and the aggregated load view. The metric
// catalogue is documented in docs/FLEET.md.
func (co *Coordinator) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", co.serveMetrics)
	mux.HandleFunc("/status", co.serveStatus)
	return mux
}

// fleetSnapshot is one consistent view of the coordinator and every member.
type fleetSnapshot struct {
	Clusters      []clusterSnapshot `json:"clusters"`
	LiveSessions  int               `json:"live_sessions"` // proxied through this coordinator
	Decisions     uint64            `json:"routing_decisions"`
	Admissions    uint64            `json:"admissions"`
	Rejections    uint64            `json:"rejections"`
	Failovers     uint64            `json:"failovers"`
	MarkedDown    uint64            `json:"marked_down"`
	FleetSessions int               `json:"fleet_sessions"` // summed from cluster summaries
}

// clusterSnapshot is one member's health, load, and traffic view.
type clusterSnapshot struct {
	ID        int     `json:"id"`
	Name      string  `json:"name"`
	Addr      string  `json:"addr"`
	Healthy   bool    `json:"healthy"`
	Probed    bool    `json:"probed"`
	LatencyMS float64 `json:"latency_ms"`

	// SummaryAgeSec is how stale the cluster's load view is: seconds since
	// the last summary landed, -1 when no probe has ever succeeded.
	SummaryAgeSec float64 `json:"summary_age_seconds"`

	Summary streaming.ClusterSummary `json:"summary"`

	Routed        uint64 `json:"routed"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"`
	Transport     uint64 `json:"transport_failures"`
	ProbeFailures uint64 `json:"probe_failures"`
}

func (co *Coordinator) snapshot() fleetSnapshot {
	out := fleetSnapshot{
		LiveSessions: co.Sessions(),
		Decisions:    co.decisions.Load(),
		Admissions:   co.admissions.Load(),
		Rejections:   co.rejections.Load(),
		Failovers:    co.failovers.Load(),
		MarkedDown:   co.markedDown.Load(),
	}
	for _, m := range co.members {
		m.mu.Lock()
		cs := clusterSnapshot{
			ID: m.id, Name: m.name, Addr: m.addr,
			Healthy: m.healthy, Probed: m.probed, LatencyMS: m.lat,
			Summary: m.summary,
		}
		m.mu.Unlock()
		cs.Summary.Proto = 0 // negotiation detail, not fleet state
		cs.SummaryAgeSec = m.summaryAge()
		cs.Routed = m.routed.Load()
		cs.Admitted = m.admitted.Load()
		cs.Rejected = m.rejected.Load()
		cs.Transport = m.transport.Load()
		cs.ProbeFailures = m.probeFails.Load()
		out.FleetSessions += cs.Summary.LiveSessions
		out.Clusters = append(out.Clusters, cs)
	}
	return out
}

func (co *Coordinator) serveMetrics(w http.ResponseWriter, r *http.Request) {
	snap := co.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP cocg_coord_routing_decisions_total Sessions routed (one decision each).\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_routing_decisions_total counter\ncocg_coord_routing_decisions_total %d\n", snap.Decisions)
	fmt.Fprintf(w, "# HELP cocg_coord_admissions_total Sessions a cluster accepted.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_admissions_total counter\ncocg_coord_admissions_total %d\n", snap.Admissions)
	fmt.Fprintf(w, "# HELP cocg_coord_rejections_total Sessions no cluster would take.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_rejections_total counter\ncocg_coord_rejections_total %d\n", snap.Rejections)
	fmt.Fprintf(w, "# HELP cocg_coord_failovers_total Admission attempts abandoned for the next-best cluster.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_failovers_total counter\ncocg_coord_failovers_total %d\n", snap.Failovers)
	fmt.Fprintf(w, "# HELP cocg_coord_marked_down_total Cluster health transitions to down.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_marked_down_total counter\ncocg_coord_marked_down_total %d\n", snap.MarkedDown)
	fmt.Fprintf(w, "# HELP cocg_coord_live_sessions Sessions currently proxied through this coordinator.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_live_sessions gauge\ncocg_coord_live_sessions %d\n", snap.LiveSessions)
	fmt.Fprintf(w, "# HELP cocg_coord_fleet_sessions Connected sessions across the fleet (from cluster summaries).\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_fleet_sessions gauge\ncocg_coord_fleet_sessions %d\n", snap.FleetSessions)

	fmt.Fprintf(w, "# HELP cocg_coord_cluster_healthy Cluster health as seen by the prober (1 healthy, 0 down).\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_healthy gauge\n")
	for _, c := range snap.Clusters {
		v := 0
		if c.Healthy {
			v = 1
		}
		fmt.Fprintf(w, "cocg_coord_cluster_healthy{cluster=%q} %d\n", c.Name, v)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_headroom Predicted free capacity fraction from the last summary.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_headroom gauge\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_headroom{cluster=%q} %.4f\n", c.Name, c.Summary.Headroom)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_sessions Connected sessions per cluster from the last summary.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_sessions gauge\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_sessions{cluster=%q} %d\n", c.Name, c.Summary.LiveSessions)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_placements_total Placements per cluster from the last summary.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_placements_total counter\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_placements_total{cluster=%q} %d\n", c.Name, c.Summary.Placements)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_routed_total Sessions routed to each cluster (dial attempts).\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_routed_total counter\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_routed_total{cluster=%q} %d\n", c.Name, c.Routed)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_admitted_total Sessions each cluster accepted.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_admitted_total counter\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_admitted_total{cluster=%q} %d\n", c.Name, c.Admitted)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_rejected_total Sessions each cluster declined at admission.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_rejected_total counter\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_rejected_total{cluster=%q} %d\n", c.Name, c.Rejected)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_transport_failures_total Session attempts lost to dial/transport errors per cluster.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_transport_failures_total counter\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_transport_failures_total{cluster=%q} %d\n", c.Name, c.Transport)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_summary_age_seconds Seconds since the last load summary landed (-1: never).\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_summary_age_seconds gauge\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_summary_age_seconds{cluster=%q} %.3f\n", c.Name, c.SummaryAgeSec)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_probe_failures_total Summary probes that errored per cluster.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_probe_failures_total counter\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_probe_failures_total{cluster=%q} %d\n", c.Name, c.ProbeFailures)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_idle_servers Servers hosting zero sessions per cluster, from the last summary.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_idle_servers gauge\n")
	for _, c := range snap.Clusters {
		fmt.Fprintf(w, "cocg_coord_cluster_idle_servers{cluster=%q} %d\n", c.Name, c.Summary.IdleServers)
	}
	fmt.Fprintf(w, "# HELP cocg_coord_cluster_game_demand Predicted demand per game over the forecast horizon, in servers' worth of capacity.\n")
	fmt.Fprintf(w, "# TYPE cocg_coord_cluster_game_demand gauge\n")
	for _, c := range snap.Clusters {
		for i, g := range c.Summary.Games {
			if i < len(c.Summary.GameDemand) {
				fmt.Fprintf(w, "cocg_coord_cluster_game_demand{cluster=%q,game=%q} %.4f\n", c.Name, g, c.Summary.GameDemand[i])
			}
		}
	}
}

func (co *Coordinator) serveStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(co.snapshot()) //cocg:lint-ignore droppederr client disconnect mid-response is benign and headers are already sent
}
