package streaming

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cocg/internal/resources"
)

// MetricsHandler returns an http.Handler exposing the server's operational
// state: Prometheus-style text at /metrics and a JSON snapshot at /status —
// what a cloud-game operator's dashboard scrapes.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/status", s.serveStatus)
	return mux
}

// snapshot collects a consistent view of the scheduled cluster under the
// cluster lock, plus the lock-free delivery counters.
type snapshot struct {
	LiveSessions int              `json:"live_sessions"`
	Placements   int              `json:"placements"`
	Pending      int              `json:"pending"`
	Completed    int              `json:"completed"`
	Servers      []serverSnapshot `json:"servers"`

	// Delivery-path counters (monotonic since start).
	FramesSent      uint64 `json:"frames_sent"`
	FramesCoalesced uint64 `json:"frames_coalesced"`
	FramesDropped   uint64 `json:"frames_dropped"`
	SummariesServed uint64 `json:"summaries_served"`

	// Pacing counters (monotonic since start): virtual seconds run, and
	// seconds the tick loop skipped past its catch-up bound.
	Ticks        uint64 `json:"ticks"`
	TicksSkipped uint64 `json:"ticks_skipped"`
}

type serverSnapshot struct {
	ID     int              `json:"id"`
	Hosted int              `json:"hosted"`
	Util   resources.Vector `json:"utilization"`
	Peak   resources.Vector `json:"peak_utilization"`
}

func (s *Server) snapshot() snapshot {
	s.clusterMu.Lock()
	out := snapshot{
		LiveSessions: len(s.live),
		Placements:   s.cluster.Placements,
		Pending:      len(s.cluster.Pending),
		Completed:    int(s.completed),
	}
	for _, srv := range s.cluster.Servers {
		out.Servers = append(out.Servers, serverSnapshot{
			ID:     srv.ID,
			Hosted: srv.NumHosted(),
			Util:   srv.Utilization(),
			Peak:   srv.PeakUtilization(),
		})
	}
	s.clusterMu.Unlock()
	out.FramesSent = s.framesSent.Load()
	out.FramesCoalesced = s.framesCoalesced.Load()
	out.FramesDropped = s.framesDropped.Load()
	out.SummariesServed = s.summariesServed.Load()
	out.Ticks = s.ticks.Load()
	out.TicksSkipped = s.ticksSkipped.Load()
	return out
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP cocg_live_sessions Currently connected streaming sessions.\n")
	fmt.Fprintf(w, "# TYPE cocg_live_sessions gauge\ncocg_live_sessions %d\n", snap.LiveSessions)
	fmt.Fprintf(w, "# HELP cocg_placements_total Sessions placed since start.\n")
	fmt.Fprintf(w, "# TYPE cocg_placements_total counter\ncocg_placements_total %d\n", snap.Placements)
	fmt.Fprintf(w, "# HELP cocg_pending_arrivals Arrivals waiting for a server.\n")
	fmt.Fprintf(w, "# TYPE cocg_pending_arrivals gauge\ncocg_pending_arrivals %d\n", snap.Pending)
	fmt.Fprintf(w, "# HELP cocg_completed_sessions_total Sessions finished since start.\n")
	fmt.Fprintf(w, "# TYPE cocg_completed_sessions_total counter\ncocg_completed_sessions_total %d\n", snap.Completed)
	fmt.Fprintf(w, "# HELP cocg_stream_frames_sent_total Frame batches delivered to clients.\n")
	fmt.Fprintf(w, "# TYPE cocg_stream_frames_sent_total counter\ncocg_stream_frames_sent_total %d\n", snap.FramesSent)
	fmt.Fprintf(w, "# HELP cocg_stream_frames_coalesced_total Frame batches coalesced under backpressure.\n")
	fmt.Fprintf(w, "# TYPE cocg_stream_frames_coalesced_total counter\ncocg_stream_frames_coalesced_total %d\n", snap.FramesCoalesced)
	fmt.Fprintf(w, "# HELP cocg_stream_frames_dropped_total Frame batches dropped oldest-first under backpressure.\n")
	fmt.Fprintf(w, "# TYPE cocg_stream_frames_dropped_total counter\ncocg_stream_frames_dropped_total %d\n", snap.FramesDropped)
	fmt.Fprintf(w, "# HELP cocg_stream_summaries_served_total Cluster load summaries served to coordinators.\n")
	fmt.Fprintf(w, "# TYPE cocg_stream_summaries_served_total counter\ncocg_stream_summaries_served_total %d\n", snap.SummariesServed)
	fmt.Fprintf(w, "# HELP cocg_stream_ticks_total Virtual seconds the simulation has run.\n")
	fmt.Fprintf(w, "# TYPE cocg_stream_ticks_total counter\ncocg_stream_ticks_total %d\n", snap.Ticks)
	fmt.Fprintf(w, "# HELP cocg_stream_ticks_skipped_total Virtual seconds skipped because the tick loop fell more than two frames behind.\n")
	fmt.Fprintf(w, "# TYPE cocg_stream_ticks_skipped_total counter\ncocg_stream_ticks_skipped_total %d\n", snap.TicksSkipped)
	fmt.Fprintf(w, "# HELP cocg_server_hosted Games hosted per backend server.\n")
	fmt.Fprintf(w, "# TYPE cocg_server_hosted gauge\n")
	for _, srv := range snap.Servers {
		fmt.Fprintf(w, "cocg_server_hosted{server=\"%d\"} %d\n", srv.ID, srv.Hosted)
	}
	fmt.Fprintf(w, "# HELP cocg_server_utilization Per-dimension utilization percent.\n")
	fmt.Fprintf(w, "# TYPE cocg_server_utilization gauge\n")
	for _, srv := range snap.Servers {
		for d := resources.Dim(0); d < resources.NumDims; d++ {
			fmt.Fprintf(w, "cocg_server_utilization{server=\"%d\",dim=%q} %.2f\n",
				srv.ID, d.String(), srv.Util[d])
		}
	}
}

func (s *Server) serveStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot()) //cocg:lint-ignore droppederr client disconnect mid-response is benign and headers are already sent
}
