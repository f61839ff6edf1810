package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cocg/internal/coordinator"
	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
	"cocg/internal/stats"
	"cocg/internal/streaming"
)

// serve-fleet: an in-process fleet over loopback TCP — two streaming servers
// behind a coordinator — played by a closed loop of clients, each starting
// its next session only when the previous one has ended.

const (
	serveClusters   = 2
	serveServers    = 16 // backend game servers per cluster
	serveTick       = time.Millisecond
	serveProbeEvery = 50 * time.Millisecond
	serveWarmup     = 10 // sessions played before the measured block
	serveTimeout    = 30 * time.Second
	// serveSessionsPerSecond sizes the measured block from the run length:
	// two clients on 1 ms ticks finish about 3.5 sessions a second.
	serveSessionsPerSecond = 3.5
	serveDirect            = 30 // traced pass: sessions dialled straight at a cluster
	serveSummaryEvery      = 100 * time.Millisecond
)

var serveLatenciesMS = [serveClusters]float64{20, 50}

// sessionPlan is one session to play: which game and script to ask for.
type sessionPlan struct {
	game   string
	script int
}

// servePlan derives the session order from the seed. Every cycle plays each
// (game, script) pair once, in a seeded order, so all seeds offer the same
// mix and differ in what runs beside what.
func servePlan(seed int64, n int) []sessionPlan {
	pairs := servePairs()
	rng := rand.New(rand.NewSource(seed + 13))
	var plan []sessionPlan
	for len(plan) < n {
		for _, i := range rng.Perm(len(pairs)) {
			plan = append(plan, pairs[i])
		}
	}
	return plan[:n]
}

// servePairs lists every (game, script) pair the trained system serves.
func servePairs() []sessionPlan {
	var pairs []sessionPlan
	for _, g := range gamesim.AllGames() {
		for s := range g.Scripts {
			pairs = append(pairs, sessionPlan{g.Name, s})
		}
	}
	return pairs
}

// serveSessions returns how many sessions the measured block plays: whole
// cycles of the (game, script) pairs, about serveSessionsPerSecond a second.
func serveSessions(seconds float64, short bool) int {
	if short {
		return 6
	}
	pairs := len(servePairs())
	cycles := int(serveSessionsPerSecond * seconds / float64(pairs))
	if cycles < 1 {
		cycles = 1
	}
	return cycles * pairs
}

func planDigest(plan []sessionPlan) string {
	h := sha256.New()
	for _, p := range plan {
		fmt.Fprintf(h, "%s %d\n", p.game, p.script)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fleet is the running system under test.
type fleet struct {
	sys        *core.System
	servers    []*streaming.Server
	co         *coordinator.Coordinator
	goroutines int // runtime.NumGoroutine before anything started
	trainMS    float64
}

func startFleet(seed int64) (*fleet, error) {
	f := &fleet{goroutines: runtime.NumGoroutine()}
	t0 := time.Now()
	sys, err := trainSystem()
	if err != nil {
		return nil, err
	}
	f.sys = sys
	f.trainMS = float64(time.Since(t0)) / 1e6
	var specs []coordinator.ClusterSpec
	for i := 0; i < serveClusters; i++ {
		srv, err := streaming.Serve("127.0.0.1:0", streaming.ServerConfig{
			System: sys, Policy: core.PolicyCoCG, Servers: serveServers,
			TickEvery: serveTick, SessionSeed: seed*1000 + int64(i),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		specs = append(specs, coordinator.ClusterSpec{
			Name: fmt.Sprintf("cluster-%d", i), Addr: srv.Addr(), LatencyMS: serveLatenciesMS[i],
		})
	}
	f.co, err = coordinator.Serve("127.0.0.1:0", coordinator.Config{Clusters: specs, ProbeEvery: serveProbeEvery})
	if err != nil {
		f.close()
		return nil, err
	}
	// Until a cluster's first summary lands the coordinator routes nothing
	// to it; set-up ends when the whole fleet is routable.
	deadline := time.Now().Add(5 * time.Second)
	for !f.routable() {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("serve-fleet: clusters never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// routable reports whether the coordinator has a summary from every cluster.
func (f *fleet) routable() bool {
	rec := httptest.NewRecorder()
	f.co.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var status struct {
		Clusters []struct {
			Healthy bool `json:"healthy"`
			Probed  bool `json:"probed"`
		} `json:"clusters"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &status) != nil || len(status.Clusters) != serveClusters {
		return false
	}
	for _, c := range status.Clusters {
		if !c.Healthy || !c.Probed {
			return false
		}
	}
	return true
}

// close stops the fleet and reports a goroutine that outlived it.
func (f *fleet) close() []string {
	if f.co != nil {
		_ = f.co.Close() // listener already-closed errors carry nothing to act on
	}
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > f.goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > f.goroutines {
		return []string{fmt.Sprintf("%d goroutines after closing the fleet, %d before starting it", n, f.goroutines)}
	}
	return nil
}

// scrape reads a /metrics page through the handler, without a socket, and
// returns its unlabelled samples.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out
}

// played is one session as the client saw it.
type played struct {
	game         string
	started      time.Time
	err          error
	admitted     bool
	cluster      string
	admitMS      float64 // dial -> Accept
	firstBatchMS float64 // Accept -> first frame batch
	wallMS       float64 // dial -> End
	gapsMS       []float64
	batches      int
	seqGaps      int
	ends         int
	end          streaming.SessionStat
}

// play runs one session to its End: the harness's own small client, so the
// Accept and every frame batch can be timestamped. It mirrors
// streaming.Play: JSON handshake, negotiated framing after it, one input
// batch per two frame batches.
func play(addr string, p sessionPlan) (out played) {
	start := time.Now()
	out.game, out.started = p.game, start
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		out.err = err
		return out
	}
	conn := streaming.NewConn(nc)
	defer func() { _ = conn.Close() }() // teardown; session errors surface first
	if err := nc.SetDeadline(start.Add(serveTimeout)); err != nil {
		out.err = err
		return out
	}
	if err := conn.Send(&streaming.Envelope{Type: streaming.MsgHello, Hello: &streaming.Hello{
		Game: p.game, Script: p.script, Proto: streaming.ProtoBinary3,
	}}); err != nil {
		out.err = err
		return out
	}
	reply, err := conn.Recv()
	accepted := time.Now()
	if err != nil {
		out.err = err
		return out
	}
	switch reply.Type {
	case streaming.MsgAccept:
	case streaming.MsgReject:
		out.err = fmt.Errorf("%w: %s", streaming.ErrRejected, reply.Reject.Reason)
		return out
	default:
		out.err = fmt.Errorf("unexpected reply %q", reply.Type)
		return out
	}
	out.admitted = true
	out.cluster = reply.Accept.Cluster
	out.admitMS = float64(accepted.Sub(start)) / 1e6
	conn.SetProto(streaming.NegotiateProto(streaming.ProtoBinary3, reply.Accept.Proto))

	var recv streaming.Envelope
	input := streaming.InputBatch{SessionID: reply.Accept.SessionID, Events: 30, Codes: make([]byte, 30)}
	inputEnv := streaming.Envelope{Type: streaming.MsgInput, Input: &input}
	var last time.Time
	var lastSeq int64
	for {
		if err := conn.RecvInto(&recv); err != nil {
			out.err = err
			return out
		}
		now := time.Now()
		switch recv.Type {
		case streaming.MsgFrames:
			if out.batches == 0 {
				out.firstBatchMS = float64(now.Sub(accepted)) / 1e6
			} else {
				out.gapsMS = append(out.gapsMS, float64(now.Sub(last))/1e6)
			}
			last = now
			out.batches++
			if seq := recv.Frames.Seq; lastSeq > 0 && seq > lastSeq+1 {
				out.seqGaps += int(seq - lastSeq - 1)
			}
			lastSeq = recv.Frames.Seq
			if out.batches%2 == 0 {
				input.Seq++
				input.SentAtMS = now.UnixMilli()
				for i := range input.Codes {
					input.Codes[i] = byte((input.Seq + int64(i)*7) & 0x7f)
				}
				if err := conn.Send(&inputEnv); err != nil {
					out.err = err
					return out
				}
			}
		case streaming.MsgEnd:
			out.ends++
			out.end = *recv.End
			out.wallMS = float64(now.Sub(start)) / 1e6
			conn.Release()
			return out
		default:
			out.err = fmt.Errorf("unexpected mid-session message %q", recv.Type)
			return out
		}
	}
}

// playBlock plays the plan through addr with a closed loop of clients and
// returns every session's outcome and the block's wall seconds.
func playBlock(addr string, plan []sessionPlan, clients int) ([]played, float64) {
	out := make([]played, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				out[i] = play(addr, plan[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// serveClients is the closed loop's width: min(nproc, 4) connections; the
// smoke size plays all its sessions at once to stay short.
func serveClients(short bool, sessions int) int {
	if short {
		return sessions
	}
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// blockStats folds a block's sessions into the numbers both passes report.
type blockStats struct {
	attempted, failed, admitted int
	admitMS, firstBatchMS       []float64
	gapsMS, lag                 []float64
	gapMean                     []float64 // each session's own mean gap
	records                     []platform.Record
	batches, seqGaps            int
	byCluster                   map[string]int
	problems                    []string
}

func foldBlock(sessions []played) blockStats {
	s := blockStats{attempted: len(sessions), byCluster: map[string]int{}}
	for i, p := range sessions {
		if p.admitted {
			s.admitted++
			s.byCluster[p.cluster]++
		}
		if p.err != nil || p.ends != 1 || p.end.DurationSec <= 0 {
			// A failed session misses every latency: it enters the
			// percentiles at the session timeout.
			s.failed++
			s.admitMS = append(s.admitMS, float64(serveTimeout)/1e6)
			s.problems = append(s.problems, fmt.Sprintf("session %d: err=%v ends=%d duration=%d", i, p.err, p.ends, p.end.DurationSec))
			continue
		}
		s.admitMS = append(s.admitMS, p.admitMS)
		s.firstBatchMS = append(s.firstBatchMS, p.firstBatchMS)
		s.gapsMS = append(s.gapsMS, p.gapsMS...)
		s.gapMean = append(s.gapMean, stats.Mean(p.gapsMS))
		s.lag = append(s.lag, p.wallMS/(float64(p.end.DurationSec)*float64(serveTick)/1e6))
		s.batches += p.batches
		s.seqGaps += p.seqGaps
		s.records = append(s.records, platform.Record{
			Game: p.game, Elapsed: simclock.Seconds(p.end.DurationSec),
			FPSRatio: p.end.FPSRatio, Degraded: p.end.Degraded,
		})
	}
	return s
}

// serveEndToEnd is the untraced pass of serve-fleet.
func serveEndToEnd(o options) (*Result, error) {
	res := &Result{Workload: "serve-fleet", Seed: o.seed, Metrics: Metrics{}}
	n := serveSessions(o.seconds, o.short)
	warmup := serveWarmup
	if o.short {
		warmup = 0
	}
	clients := serveClients(o.short, n)

	var f *fleet
	var plan []sessionPlan
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if f != nil {
			res.Problems = append(res.Problems, f.close()...)
			f = nil
		}
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		var err error
		if f, err = startFleet(o.seed); err != nil {
			return nil, err
		}
		plan = servePlan(o.seed, warmup+n)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.InputDigest = planDigest(servePlan(o.seed, 256))

	playBlock(f.co.Addr(), plan[:warmup], clients)
	sessions, wall := playBlock(f.co.Addr(), plan[warmup:], clients)
	admissions := scrape(f.co.MetricsHandler())["cocg_coord_admissions_total"]
	res.Problems = append(res.Problems, f.close()...)

	s := foldBlock(sessions)
	res.Problems = append(res.Problems, s.problems...)
	res.Attempted, res.Failed = s.attempted, s.failed
	if want := float64(warmup + s.admitted); admissions != want {
		res.Problems = append(res.Problems, fmt.Sprintf("coordinator admissions_total %.0f, clients were admitted %.0f times", admissions, want))
	}

	m := res.Metrics
	q := platform.Summarize(s.records)
	var sessionSeconds float64
	for _, r := range s.records {
		sessionSeconds += float64(r.Elapsed)
	}
	m.setMedian("setup_s", "s", setups)
	m.set("session_seconds_per_s", "1/s", sessionSeconds/wall)
	m.set("eq2_throughput", "eq2", platform.Throughput(s.records, nil))
	m.setN("fps_ratio_mean", "fraction", q.MeanFPSRatio, q.Sessions)
	m.setN("qos_ok_frac", "fraction", 1-q.ViolatedFrac, q.Sessions)
	// A session's own mean gap (≈110 gaps a session), median over sessions:
	// what a typical session sees. The tail of the gaps follows the host's
	// worst moments, not the program; the traced pass reports it.
	m["frame_gap_ms_mean"] = Metric{Value: stats.Median(s.gapMean), Unit: "ms", N: len(s.gapsMS), Samples: s.gapMean}
	m.setN("completed_frac", "fraction", 1-float64(s.failed)/float64(s.attempted), s.attempted)
	return res, nil
}

// serveTraced is the traced pass: a block through the coordinator with
// LoadSummary timed beside it, a block dialled straight at one cluster, the
// servers' own counters, and the layer probes.
func serveTraced(o options) (*Result, error) {
	res := &Result{Workload: "serve-fleet", Seed: o.seed, Metrics: Metrics{}}
	m := res.Metrics
	n, direct, warmup := serveSessions(o.seconds, o.short)/2, serveDirect, serveWarmup
	if o.short {
		n, direct, warmup = 3, 3, 0
	}
	clients := serveClients(o.short, n)

	f, err := startFleet(o.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plan := servePlan(o.seed, warmup+n+direct)
	m.set("workload.schedule_ms", "ms", float64(time.Since(t0))/1e6)
	m.set("core.train_ms", "ms", f.trainMS)
	m.set("workload.arrivals", "count", float64(n+direct))
	res.InputDigest = planDigest(servePlan(o.seed, 256))

	playBlock(f.co.Addr(), plan[:warmup], clients)

	// Time LoadSummary beside the routed block: it takes the cluster lock the
	// tick walk and every admission take.
	var summaryUS []float64
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		ticker := time.NewTicker(serveSummaryEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				for _, srv := range f.servers {
					t := time.Now()
					srv.LoadSummary()
					summaryUS = append(summaryUS, float64(time.Since(t))/1e3)
				}
			}
		}
	}()
	via, viaWall := playBlock(f.co.Addr(), plan[warmup:warmup+n], clients)
	close(stop)
	pollers.Wait()
	straight, _ := playBlock(f.servers[0].Addr(), plan[warmup+n:], clients)

	coord := scrape(f.co.MetricsHandler())
	var coalesced, dropped, contention float64
	for _, srv := range f.servers {
		c := scrape(srv.MetricsHandler())
		coalesced += c["cocg_stream_frames_coalesced_total"]
		dropped += c["cocg_stream_frames_dropped_total"]
		contention += c["cocg_stream_shard_contention_total"]
	}
	res.Problems = append(res.Problems, f.close()...)

	v, d := foldBlock(via), foldBlock(straight)
	res.Problems = append(res.Problems, v.problems...)
	res.Problems = append(res.Problems, d.problems...)
	res.Attempted, res.Failed = v.attempted+d.attempted, v.failed+d.failed
	if tr := o.tr; tr != nil {
		recordSessions(tr, "serve-fleet via coordinator", via)
		recordSessions(tr, "serve-fleet direct", straight)
	}

	viaAdmit := stats.Percentile(v.admitMS, 50)
	directAdmit := stats.Percentile(d.admitMS, 50)
	m.setN("coordinator.admit_ms_p50", "ms", viaAdmit, len(v.admitMS))
	m.setN("streaming.direct_admit_ms_p50", "ms", directAdmit, len(d.admitMS))
	m.setN("streaming.first_batch_ms_p50", "ms", stats.Percentile(v.firstBatchMS, 50), len(v.firstBatchMS))
	m.setN("streaming.frame_gap_ms_p50", "ms", stats.Percentile(v.gapsMS, 50), len(v.gapsMS))
	m.setN("streaming.frame_gap_ms_p99", "ms", stats.Percentile(v.gapsMS, 99), len(v.gapsMS))
	m.setN("streaming.admit_ms_p90", "ms", stats.Percentile(v.admitMS, 90), len(v.admitMS))
	m.setN("streaming.sessions_per_s", "1/s", float64(len(v.records))/viaWall, len(v.records))
	m.setN("streaming.session_lag_ratio", "ratio", stats.Median(v.lag), len(v.lag))
	m.set("streaming.batches_delivered", "count", float64(v.batches+d.batches))
	m.set("streaming.seq_gaps", "count", float64(v.seqGaps+d.seqGaps))
	m.set("streaming.frames_coalesced", "count", coalesced)
	m.set("streaming.frames_dropped", "count", dropped)
	m.set("streaming.shard_contention", "count", contention)
	m.setN("streaming.summary_us_p50", "us", stats.Percentile(summaryUS, 50), len(summaryUS))
	m.set("coordinator.added_admit_ms_p50", "ms", viaAdmit-directAdmit)
	if viaAdmit > 0 {
		m.set("coordinator.added_admit_share", "fraction", (viaAdmit-directAdmit)/viaAdmit)
	}
	m.set("coordinator.failovers", "count", coord["cocg_coord_failovers_total"])
	m.set("coordinator.rejections", "count", coord["cocg_coord_rejections_total"])
	most := 0
	for _, c := range v.byCluster {
		if c > most {
			most = c
		}
	}
	if v.admitted > 0 {
		m.set("coordinator.route_share_max", "fraction", float64(most)/float64(v.admitted))
	}

	// The placement-scan and forecast probes have no view into the servers'
	// clusters; they read a warm CoCG rack instead.
	warm := warmCluster(f.sys, core.PolicyCoCG, o.seed)
	setScoreProbe(m, probeScore(f.sys, warm, o.seed))
	m.set("predictor.forecast_ns", "ns", probeForecast(warm, o))
	probeCommon(m, f.sys, core.PolicyCoCG, o)
	// No exploded driver ran here, so there is nothing that could diverge.
	m.set("trace.equivalent", "bool", 1)
	fillPerLayer(m)
	return res, nil
}

// recordSessions writes each session's client-side spans: the session, and
// beneath it the admission and the wait for the first frame batch.
func recordSessions(tr *tracer, name string, sessions []played) {
	rep := tr.beginRep(name)
	for _, p := range sessions {
		if !p.admitted || p.err != nil {
			continue
		}
		base := int64(p.started.Sub(tr.t0))
		at := func(ms float64) int64 { return base + int64(ms*1e6) }
		tr.spans = append(tr.spans, span{Name: "streaming.session", Start: base, End: at(p.wallMS), Parent: rep, Rep: rep})
		sess := len(tr.spans) - 1
		tr.spans = append(tr.spans,
			span{Name: "coordinator.admit", Start: base, End: at(p.admitMS), Parent: sess, Rep: rep},
			span{Name: "streaming.first_batch", Start: at(p.admitMS), End: at(p.admitMS + p.firstBatchMS), Parent: sess, Rep: rep})
	}
	tr.end(rep)
}
