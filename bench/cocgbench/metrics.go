package main

import (
	"math"
	"sort"

	"cocg/internal/stats"
)

// Metric is one named measurement. N is the number of samples behind a
// percentile or a median; Samples carries the per-rep values of metrics that
// are medians over reps, so -compare can judge run-to-run spread.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// Metrics maps metric name to measurement.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

func (m Metrics) setN(name, unit string, v float64, n int) {
	m[name] = Metric{Value: v, Unit: unit, N: n}
}

// setMedian records the median of per-rep samples and keeps the samples.
func (m Metrics) setMedian(name, unit string, samples []float64) {
	m[name] = Metric{Value: stats.Median(samples), Unit: unit, N: len(samples), Samples: samples}
}

// endToEndMetric describes one end-to-end metric: its unit and direction,
// the bound BENCHMARK.json fixes (the share of the parent's median a later
// change may lose, sized to hold across seeds and across this machine's
// run-to-run drift), and the tighter allowance -compare gives the simulated
// quality numbers, which repeat exactly for a seed.
type endToEndMetric struct {
	name   string
	unit   string
	higher bool
	bound  float64
	// exactRel and exactAbs are -compare's tolerance on a deterministic
	// workload: a value may be worse by the larger of the relative share
	// and the absolute amount. Zero for both means the metric is a
	// wall-clock measurement and bound applies everywhere.
	exactRel float64
	exactAbs float64
}

// endToEnd lists the seven end-to-end metrics. Every workload reports every
// one of them (see README.md for what each means on the simulation and on
// the serving workloads).
var endToEnd = []endToEndMetric{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "session_seconds_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "eq2_throughput", unit: "eq2", higher: true, bound: 0.25, exactRel: 0.005},
	{name: "fps_ratio_mean", unit: "fraction", higher: true, bound: 0.01, exactAbs: 0.005},
	{name: "qos_ok_frac", unit: "fraction", higher: true, bound: 0.25, exactAbs: 0.005},
	{name: "frame_gap_ms_mean", unit: "ms", bound: 0.25},
	{name: "completed_frac", unit: "fraction", higher: true, bound: 0.01, exactAbs: 0.01},
}

// perLayer lists the per-layer metrics every traced run reports, with their
// units; layer = package name. A layer a workload does not cross reports 0
// for its counts, shares and ratios; every metric with a time unit is a
// probe or a span that exists on all four workloads. The document mode
// additionally prints the workload-specific timings (README.md).
var perLayer = []struct{ name, unit string }{
	{"core.train_ms", "ms"},
	{"workload.schedule_ms", "ms"},
	{"workload.arrivals", "count"},
	{"platform.pick_calls", "count"},
	{"platform.pick_share", "fraction"},
	{"platform.place_success_ratio", "ratio"},
	{"platform.admit_ms_p50", "ms"},
	{"platform.pending_wait_vs_p50", "vsec"},
	{"platform.pending_wait_vs_p95", "vsec"},
	{"platform.tick_share", "fraction"},
	{"platform.span_speedup", "ratio"},
	{"platform.jobs_speedup", "ratio"},
	{"platform.alloc_bytes_per_session_second", "B"},
	{"platform.failed_placements", "count"},
	{"platform.records_share", "fraction"},
	{"scheduler.score_cold_ns_per_server", "ns"},
	{"scheduler.score_warm_ns_per_server", "ns"},
	{"scheduler.admit_ok_ratio", "ratio"},
	{"scheduler.new_controller_share", "fraction"},
	{"scheduler.fleetload_polls", "count"},
	{"scheduler.fleetload_share", "fraction"},
	{"scheduler.headroom_mean", "fraction"},
	{"scheduler.regulate_ns_per_server", "ns"},
	{"predictor.observe_calls", "count"},
	{"predictor.observe_ns", "ns"},
	{"predictor.forecast_ns", "ns"},
	{"predictor.hit_rate", "fraction"},
	{"gamesim.new_session_share", "fraction"},
	{"gamesim.step_ns", "ns"},
	{"gamesim.stepbulk_ns_per_second", "ns"},
	{"streaming.batches_delivered", "count"},
	{"streaming.seq_gaps", "count"},
	{"streaming.frames_coalesced", "count"},
	{"streaming.frames_dropped", "count"},
	{"streaming.shard_contention", "count"},
	{"streaming.sessions_per_s", "1/s"},
	{"streaming.frame_gap_ms_p99", "ms"},
	{"streaming.session_lag_ratio", "ratio"},
	{"streaming.codec_encode_ns", "ns"},
	{"streaming.codec_decode_ns", "ns"},
	{"coordinator.admit_ms_p50", "ms"},
	{"coordinator.added_admit_share", "fraction"},
	{"coordinator.rank_ns", "ns"},
	{"coordinator.rank64_ns", "ns"},
	{"coordinator.failovers", "count"},
	{"coordinator.rejections", "count"},
	{"coordinator.route_share_max", "fraction"},
	{"trace.equivalent", "bool"},
	{"trace.unattributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// fillPerLayer gives every listed per-layer metric a value: a layer the
// workload never enters did no work, which is what 0 says.
func fillPerLayer(m Metrics) {
	for _, p := range perLayer {
		if _, ok := m[p.name]; !ok {
			m.set(p.name, p.unit, 0)
		}
	}
}

// spread is the distance between the first and third quartile as a share of
// the median — the same statistic the benchmark contract judges steadiness
// by (exclusive-method quartiles, as Python's statistics.quantiles gives).
func spread(samples []float64) float64 {
	n := len(samples)
	med := stats.Median(samples)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(k float64) float64 {
		pos := k * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
