package coordinator

import (
	"net/http"

	"cocg/internal/obs"
	"cocg/internal/streaming"
)

// MetricsHandler returns an http.Handler exposing the fleet's operational
// state: Prometheus-style text at /metrics and a JSON snapshot at /status.
// Everything a single cluster exposes stays on that cluster's own endpoint;
// this one carries what only the coordinator knows — routing decisions,
// failovers, per-cluster health, and the aggregated load view. The metric
// catalogue is documented in docs/FLEET.md.
func (co *Coordinator) MetricsHandler() http.Handler { return obs.Handler(metrics, co.snapshot) }

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

	// label is the cluster's label pair, {"cluster", Name}: every
	// per-cluster sample emits it, so no family allocates a label slice.
	label [2]string
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
			ID: m.id, Name: m.name, Addr: m.addr, label: [2]string{"cluster", m.name},
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

// metrics is the /metrics page: every family the coordinator serves, in
// order.
var metrics = []obs.Metric[fleetSnapshot]{
	{Name: "cocg_coord_routing_decisions_total", Type: obs.Counter, Help: "Sessions routed (one decision each).",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.Decisions)) }},
	{Name: "cocg_coord_admissions_total", Type: obs.Counter, Help: "Sessions a cluster accepted.",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.Admissions)) }},
	{Name: "cocg_coord_rejections_total", Type: obs.Counter, Help: "Sessions no cluster would take.",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.Rejections)) }},
	{Name: "cocg_coord_failovers_total", Type: obs.Counter, Help: "Admission attempts abandoned for the next-best cluster.",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.Failovers)) }},
	{Name: "cocg_coord_marked_down_total", Type: obs.Counter, Help: "Cluster health transitions to down.",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.MarkedDown)) }},
	{Name: "cocg_coord_live_sessions", Type: obs.Gauge, Help: "Sessions currently proxied through this coordinator.",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.LiveSessions)) }},
	{Name: "cocg_coord_fleet_sessions", Type: obs.Gauge, Help: "Connected sessions across the fleet (from cluster summaries).",
		Samples: func(s fleetSnapshot, emit obs.Emit) { emit(float64(s.FleetSessions)) }},
	perCluster("cocg_coord_cluster_healthy", obs.Gauge, 0, "Cluster health as seen by the prober (1 healthy, 0 down).",
		func(c *clusterSnapshot) float64 {
			if c.Healthy {
				return 1
			}
			return 0
		}),
	perCluster("cocg_coord_cluster_headroom", obs.Gauge, 4, "Predicted free capacity fraction from the last summary.",
		func(c *clusterSnapshot) float64 { return c.Summary.Headroom }),
	perCluster("cocg_coord_cluster_sessions", obs.Gauge, 0, "Connected sessions per cluster from the last summary.",
		func(c *clusterSnapshot) float64 { return float64(c.Summary.LiveSessions) }),
	perCluster("cocg_coord_cluster_placements_total", obs.Counter, 0, "Placements per cluster from the last summary.",
		func(c *clusterSnapshot) float64 { return float64(c.Summary.Placements) }),
	perCluster("cocg_coord_cluster_routed_total", obs.Counter, 0, "Sessions routed to each cluster (dial attempts).",
		func(c *clusterSnapshot) float64 { return float64(c.Routed) }),
	perCluster("cocg_coord_cluster_admitted_total", obs.Counter, 0, "Sessions each cluster accepted.",
		func(c *clusterSnapshot) float64 { return float64(c.Admitted) }),
	perCluster("cocg_coord_cluster_rejected_total", obs.Counter, 0, "Sessions each cluster declined at admission.",
		func(c *clusterSnapshot) float64 { return float64(c.Rejected) }),
	perCluster("cocg_coord_cluster_transport_failures_total", obs.Counter, 0, "Session attempts lost to dial/transport errors per cluster.",
		func(c *clusterSnapshot) float64 { return float64(c.Transport) }),
	perCluster("cocg_coord_cluster_summary_age_seconds", obs.Gauge, 3, "Seconds since the last load summary landed (-1: never).",
		func(c *clusterSnapshot) float64 { return c.SummaryAgeSec }),
	perCluster("cocg_coord_cluster_probe_failures_total", obs.Counter, 0, "Summary probes that errored per cluster.",
		func(c *clusterSnapshot) float64 { return float64(c.ProbeFailures) }),
	perCluster("cocg_coord_cluster_idle_servers", obs.Gauge, 0, "Servers hosting zero sessions per cluster, from the last summary.",
		func(c *clusterSnapshot) float64 { return float64(c.Summary.IdleServers) }),
	{Name: "cocg_coord_cluster_game_demand", Type: obs.Gauge, Prec: 4,
		Help: "Predicted demand per game over the forecast horizon, in servers' worth of capacity.",
		Samples: func(s fleetSnapshot, emit obs.Emit) {
			labels := []string{"cluster", "", "game", ""}
			for _, c := range s.Clusters {
				for i, g := range c.Summary.Games {
					if i < len(c.Summary.GameDemand) {
						labels[1], labels[3] = c.Name, g
						emit(c.Summary.GameDemand[i], labels...)
					}
				}
			}
		}},
}

// perCluster is a family with one sample per cluster, labelled by its name.
func perCluster(name, typ string, prec int, help string, value func(*clusterSnapshot) float64) obs.Metric[fleetSnapshot] {
	return obs.Metric[fleetSnapshot]{Name: name, Type: typ, Help: help, Prec: prec,
		Samples: func(s fleetSnapshot, emit obs.Emit) {
			for i := range s.Clusters {
				emit(value(&s.Clusters[i]), s.Clusters[i].label[:]...)
			}
		}}
}
