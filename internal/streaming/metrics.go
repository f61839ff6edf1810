package streaming

import (
	"net/http"
	"strconv"

	"cocg/internal/obs"
	"cocg/internal/resources"
)

// MetricsHandler returns an http.Handler exposing the server's operational
// state: Prometheus-style text at /metrics and a JSON snapshot at /status —
// what a cloud-game operator's dashboard scrapes.
func (s *Server) MetricsHandler() http.Handler { return obs.Handler(metrics, s.snapshot) }

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
	label  string           // ID as label text (Server.serverLabels)
}

func (s *Server) snapshot() snapshot {
	s.clusterMu.Lock()
	out := snapshot{
		LiveSessions: len(s.live),
		Placements:   s.cluster.Placements,
		Pending:      len(s.cluster.Pending),
		Completed:    int(s.completed),
	}
	out.Servers = make([]serverSnapshot, len(s.cluster.Servers))
	for i, srv := range s.cluster.Servers {
		if i == len(s.serverLabels) {
			s.serverLabels = append(s.serverLabels, strconv.Itoa(srv.ID))
		}
		out.Servers[i] = serverSnapshot{
			ID:     srv.ID,
			Hosted: srv.NumHosted(),
			Util:   srv.Utilization(),
			Peak:   srv.PeakUtilization(),
			label:  s.serverLabels[i],
		}
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

// metrics is the /metrics page: every family the server serves, in order.
var metrics = []obs.Metric[snapshot]{
	{Name: "cocg_live_sessions", Type: obs.Gauge, Help: "Currently connected streaming sessions.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.LiveSessions)) }},
	{Name: "cocg_placements_total", Type: obs.Counter, Help: "Sessions placed since start.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.Placements)) }},
	{Name: "cocg_pending_arrivals", Type: obs.Gauge, Help: "Arrivals waiting for a server.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.Pending)) }},
	{Name: "cocg_completed_sessions_total", Type: obs.Counter, Help: "Sessions finished since start.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.Completed)) }},
	{Name: "cocg_stream_frames_sent_total", Type: obs.Counter, Help: "Frame batches delivered to clients.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.FramesSent)) }},
	{Name: "cocg_stream_frames_coalesced_total", Type: obs.Counter, Help: "Frame batches coalesced under backpressure.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.FramesCoalesced)) }},
	{Name: "cocg_stream_frames_dropped_total", Type: obs.Counter, Help: "Frame batches dropped oldest-first under backpressure.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.FramesDropped)) }},
	{Name: "cocg_stream_summaries_served_total", Type: obs.Counter, Help: "Cluster load summaries served to coordinators.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.SummariesServed)) }},
	{Name: "cocg_stream_ticks_total", Type: obs.Counter, Help: "Virtual seconds the simulation has run.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.Ticks)) }},
	{Name: "cocg_stream_ticks_skipped_total", Type: obs.Counter, Help: "Virtual seconds skipped because the tick loop fell more than two frames behind.",
		Samples: func(s snapshot, emit obs.Emit) { emit(float64(s.TicksSkipped)) }},
	{Name: "cocg_server_hosted", Type: obs.Gauge, Help: "Games hosted per backend server.",
		Samples: func(s snapshot, emit obs.Emit) {
			labels := []string{"server", ""}
			for _, srv := range s.Servers {
				labels[1] = srv.label
				emit(float64(srv.Hosted), labels...)
			}
		}},
	{Name: "cocg_server_utilization", Type: obs.Gauge, Help: "Per-dimension utilization percent.", Prec: 2,
		Samples: func(s snapshot, emit obs.Emit) {
			labels := []string{"server", "", "dim", ""}
			for _, srv := range s.Servers {
				labels[1] = srv.label
				for d := resources.Dim(0); d < resources.NumDims; d++ {
					labels[3] = d.String()
					emit(srv.Util[d], labels...)
				}
			}
		}},
}
