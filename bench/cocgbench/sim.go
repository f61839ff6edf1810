package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/scheduler"
	"cocg/internal/simclock"
	"cocg/internal/stats"
	"cocg/internal/workload"
)

// simSpec sizes one simulation workload.
type simSpec struct {
	name    string
	policy  core.PolicyKind
	servers int
	horizon simclock.Seconds
	rate    float64 // arrivals per virtual second
	// poll adds one FleetLoadInto call after every placement frame: the
	// coordinator's summary probe, reading the caches ticks and admissions
	// invalidate.
	poll bool
}

// simSpecs are the three simulation workloads at full size. rack-reactive
// replays rack-cocg's exact schedule under the reactive baseline.
var simSpecs = []simSpec{
	{name: "rack-cocg", policy: core.PolicyCoCG, servers: 32, horizon: 16 * simclock.Hour, rate: 0.075},
	{name: "fleet-cocg", policy: core.PolicyCoCG, servers: 1024, horizon: 30 * simclock.Minute, rate: 3.6, poll: true},
	{name: "rack-reactive", policy: core.PolicyReactive, servers: 32, horizon: 16 * simclock.Hour, rate: 0.075},
}

// shortened returns the smoke-test size of a workload.
func (s simSpec) shortened() simSpec {
	if s.poll {
		s.servers, s.horizon, s.rate = 16, 5*simclock.Minute, 0.2
	} else {
		s.servers, s.horizon, s.rate = 4, 10*simclock.Minute, 0.05
	}
	return s
}

const starveLimit = 5 * simclock.Minute

// simFixture is everything a rep needs that is built before the first timed
// region: the trained system and the pregenerated arrival schedule.
type simFixture struct {
	spec       simSpec
	sys        *core.System
	sched      []platform.Arrival
	trainMS    float64
	scheduleMS float64
}

// trainSystem trains on one worker: set-up is timed, and a parallel pass on
// a shared two-core host times the neighbours. The trained system does not
// depend on the worker count.
func trainSystem() (*core.System, error) {
	return core.Train(gamesim.AllGames(), core.TrainOptions{Seed: 1, Workers: 1})
}

// buildSim trains the system and generates the workload's arrivals from the
// seed; the program under test receives only these generated inputs.
func buildSim(spec simSpec, seed int64) (*simFixture, error) {
	t0 := time.Now()
	sys, err := trainSystem()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	gen := sys.Generator(seed + 7)
	sched := workload.NewMixStream(gen, gamesim.AllGames(), spec.rate, seed+11).Schedule(0, spec.horizon)
	t2 := time.Now()
	return &simFixture{
		spec: spec, sys: sys, sched: sched,
		trainMS:    float64(t1.Sub(t0)) / 1e6,
		scheduleMS: float64(t2.Sub(t1)) / 1e6,
	}, nil
}

func (f *simFixture) newCluster(jobs int) *platform.Cluster {
	c := f.sys.NewCluster(f.spec.servers, f.spec.policy)
	c.StarveLimit = starveLimit
	c.Jobs = jobs
	return c
}

// inputDigest pins the generated arrivals: game, script, habit, session seed
// and submission second of every arrival.
func (f *simFixture) inputDigest() string {
	h := sha256.New()
	for _, a := range f.sched {
		fmt.Fprintf(h, "%s %d %d %d %d\n", a.Spec.Name, a.Script, a.Habit, a.SessionSeed, a.Submitted)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runEvented drives one untraced rep through Cluster.RunEvented and returns
// its wall seconds. A polling workload advances frame by frame so the
// summary poll lands after every placement frame; the slices keep each
// arrival in the frame it is due.
func (f *simFixture) runEvented(c *platform.Cluster, polls *pollStats) float64 {
	t0 := time.Now()
	if !f.spec.poll {
		c.RunEvented(f.spec.horizon, f.sched)
		return time.Since(t0).Seconds()
	}
	fs, _ := c.Policy.(platform.FleetSummarizer)
	var load platform.FleetLoad
	lo := 0
	for now := simclock.Seconds(0); now < f.spec.horizon; now += simclock.FrameLen {
		hi := lo
		for hi < len(f.sched) && f.sched[hi].Submitted < now+simclock.FrameLen {
			hi++
		}
		c.RunEvented(simclock.FrameLen, f.sched[lo:hi])
		lo = hi
		if fs != nil {
			polls.poll(fs, c.Servers, &load)
		}
	}
	return time.Since(t0).Seconds()
}

// simOutcome is what one rep produced.
type simOutcome struct {
	digest         string
	records        []platform.Record
	sessionSeconds float64
	placements     int
	failed         int
	hitRate        float64 // mean predictor accuracy over still-hosted CoCG sessions
	problems       []string
}

// inspect digests a finished cluster and runs the output checks on it.
func inspect(c *platform.Cluster, arrivals int) simOutcome {
	out := simOutcome{records: c.Records(), placements: c.Placements, failed: c.FailedPlacements}
	running := c.RunningSessions()
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", out.records)
	fmt.Fprintf(h, "placements=%d rejected=%d failed=%d pending=%d running=%d\n",
		c.Placements, c.RejectedTicks, c.FailedPlacements, len(c.Pending), running)
	for _, a := range c.Pending {
		fmt.Fprintf(h, "%d ", a.SessionSeed)
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))

	for _, r := range out.records {
		out.sessionSeconds += float64(r.Elapsed)
	}
	var acc float64
	var predictors int
	for _, srv := range c.Servers {
		for _, hosted := range srv.Hosted {
			out.sessionSeconds += float64(hosted.Session.Elapsed())
			if ctl, ok := hosted.Controller.(*scheduler.Controller); ok {
				acc += ctl.Predictor().Accuracy()
				predictors++
			}
		}
		util := srv.Utilization()
		for d := range util {
			if util[d] > srv.Capacity[d]+1e-9 {
				out.problems = append(out.problems,
					fmt.Sprintf("server %d utilization %.6f exceeds capacity %.6f", srv.ID, util[d], srv.Capacity[d]))
			}
		}
	}
	if predictors > 0 {
		out.hitRate = acc / float64(predictors)
	}
	if got := c.Placements + len(c.Pending) + c.FailedPlacements; got != arrivals {
		out.problems = append(out.problems,
			fmt.Sprintf("arrivals %d != placements %d + pending %d + failed %d", arrivals, c.Placements, len(c.Pending), c.FailedPlacements))
	}
	if got := len(out.records) + running; got != c.Placements {
		out.problems = append(out.problems,
			fmt.Sprintf("records %d + running %d != placements %d", len(out.records), running, c.Placements))
	}
	return out
}

// simEndToEnd is the untraced pass of a simulation workload: timed
// RunEvented reps for as long as the run measures, the workload's value
// being the median over reps.
func simEndToEnd(spec simSpec, o options) (*Result, error) {
	res := &Result{Workload: spec.name, Seed: o.seed, Metrics: Metrics{}}
	var fix *simFixture
	var setups []float64
	for i := 0; i < o.setups; i++ {
		fix = nil
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		f, err := buildSim(spec, o.seed)
		if err != nil {
			return nil, err
		}
		f.newCluster(1) // cluster construction is part of set-up
		setups = append(setups, time.Since(t0).Seconds())
		fix = f
	}
	res.InputDigest = fix.inputDigest()
	res.Attempted = len(fix.sched)

	// frameMS is a rep's wall per 5-virtual-second placement frame: on a
	// simulation the frame gap is the reciprocal view of the speed, from the
	// same reps.
	var rates, frameMS []float64
	var first simOutcome
	frames := float64(spec.horizon / simclock.FrameLen)
	start := time.Now()
	for rep := 0; rep < o.minReps || time.Since(start).Seconds() < o.seconds; rep++ {
		c := fix.newCluster(1)
		runtime.GC()
		wall := fix.runEvented(c, &pollStats{})
		out := inspect(c, len(fix.sched))
		res.Problems = append(res.Problems, out.problems...)
		if rep == 0 {
			first = out
		} else if out.digest != first.digest {
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d output digest %s differs from rep 0 %s", rep, out.digest, first.digest))
		}
		rates = append(rates, out.sessionSeconds/wall)
		frameMS = append(frameMS, wall*1e3/frames)
	}
	res.OutputDigest = first.digest
	res.Failed = first.failed

	m := res.Metrics
	q := platform.Summarize(first.records)
	m.setMedian("setup_s", "s", setups)
	m.setMedian("session_seconds_per_s", "1/s", rates)
	m.set("eq2_throughput", "eq2", platform.Throughput(first.records, nil))
	m.setN("fps_ratio_mean", "fraction", q.MeanFPSRatio, q.Sessions)
	m.setN("qos_ok_frac", "fraction", 1-q.ViolatedFrac, q.Sessions)
	m.setMedian("frame_gap_ms_mean", "ms", frameMS)
	m.setN("completed_frac", "fraction", 1-float64(first.failed)/float64(len(fix.sched)), len(fix.sched))
	return res, nil
}

// simTraced is the traced pass: one untraced baseline rep, one rep through
// the exploded driver with a span around every call into a layer, one rep at
// Jobs = nproc, then the layer probes on the traced run's warm state.
func simTraced(spec simSpec, o options) (*Result, error) {
	res := &Result{Workload: spec.name, Seed: o.seed, Metrics: Metrics{}}
	m := res.Metrics
	fix, err := buildSim(spec, o.seed)
	if err != nil {
		return nil, err
	}
	res.InputDigest = fix.inputDigest()
	res.Attempted = len(fix.sched)
	m.set("core.train_ms", "ms", fix.trainMS)
	m.set("workload.schedule_ms", "ms", fix.scheduleMS)
	m.set("workload.arrivals", "count", float64(len(fix.sched)))

	// Baseline: untraced wall and allocation volume. A second baseline rep
	// runs after the traced one, so drift over the run cancels out of the
	// tracing overhead.
	c := fix.newCluster(1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	baseWall := fix.runEvented(c, &pollStats{})
	runtime.ReadMemStats(&after)
	base := inspect(c, len(fix.sched))
	res.Problems = append(res.Problems, base.problems...)
	res.OutputDigest = base.digest
	res.Failed = base.failed
	m.set("platform.alloc_bytes_per_session_second", "B", float64(after.TotalAlloc-before.TotalAlloc)/base.sessionSeconds)
	m.set("platform.failed_placements", "count", float64(base.failed))

	// Traced rep.
	tr := o.tr
	if tr == nil {
		tr = newTracer()
	}
	c = fix.newCluster(1)
	runtime.GC()
	rep := tr.beginRep(spec.name)
	ex := &exploded{tr: tr, rep: rep}
	if spec.policy == core.PolicyCoCG {
		ex.probe = &scoreProbe{}
	}
	ex.run(c, spec.horizon, fix.sched, spec.poll)
	id := tr.begin("platform.records", rep, rep)
	c.Records()
	tr.end(id)
	tr.end(rep)
	traced := inspect(c, len(fix.sched))
	res.Problems = append(res.Problems, traced.problems...)

	c = fix.newCluster(1)
	runtime.GC()
	baseWall = (baseWall + fix.runEvented(c, &pollStats{})) / 2
	if out := inspect(c, len(fix.sched)); out.digest != base.digest {
		res.Problems = append(res.Problems, "second baseline rep diverged from the first: "+out.digest)
	}

	self := selfTimes(tr.spans, rep)
	repNS := float64(tr.spans[rep].End - tr.spans[rep].Start)
	share := func(name string) float64 { return self[name] / repNS }
	equivalent := 0.0
	if traced.digest == base.digest {
		equivalent = 1
	}
	m.set("trace.equivalent", "bool", equivalent)
	m.set("trace.unattributed_frac", "fraction", share(spec.name))
	// The in-run placement-scan probe is measurement, not tracing: leave it
	// out of the cost of tracing.
	m.set("trace.overhead_frac", "fraction", (repNS-self["scheduler.score_probe"])/1e9/baseWall-1)

	picks := durations(tr.spans, rep, "platform.pick", 1e3)
	m.set("platform.pick_calls", "count", float64(len(picks)))
	m.set("platform.pick_busy_ms", "ms", self["platform.pick"]/1e6)
	m.setN("platform.pick_us_p50", "us", stats.Percentile(picks, 50), len(picks))
	m.setN("platform.pick_us_p99", "us", stats.Percentile(picks, 99), len(picks))
	m.set("platform.pick_share", "fraction", share("platform.pick"))
	if len(picks) > 0 {
		m.set("platform.place_success_ratio", "ratio", float64(traced.placements)/float64(len(picks)))
	}
	m.setN("platform.admit_ms_p50", "ms", stats.Percentile(ex.admitMS, 50), len(ex.admitMS))
	m.setN("platform.frame_ms_p50", "ms", stats.Percentile(ex.frameMS, 50), len(ex.frameMS))
	m.setN("platform.frame_ms_p90", "ms", stats.Percentile(ex.frameMS, 90), len(ex.frameMS))
	m.setN("platform.pending_wait_vs_p50", "vsec", stats.Percentile(ex.waitVS, 50), len(ex.waitVS))
	m.setN("platform.pending_wait_vs_p95", "vsec", stats.Percentile(ex.waitVS, 95), len(ex.waitVS))
	m.set("platform.tick_busy_ms", "ms", self["platform.tick"]/1e6)
	m.set("platform.tick_ns_per_session_second", "ns", self["platform.tick"]/traced.sessionSeconds)
	m.set("platform.tick_share", "fraction", share("platform.tick"))
	m.set("platform.records_ms", "ms", self["platform.records"]/1e6)
	m.set("platform.records_share", "fraction", share("platform.records"))
	m.set("scheduler.new_controller_busy_ms", "ms", self["scheduler.new_controller"]/1e6)
	m.set("scheduler.new_controller_share", "fraction", share("scheduler.new_controller"))
	sessions := durations(tr.spans, rep, "gamesim.new_session", 1e3)
	m.set("gamesim.new_session_busy_ms", "ms", self["gamesim.new_session"]/1e6)
	m.setN("gamesim.new_session_us_p50", "us", stats.Percentile(sessions, 50), len(sessions))
	m.set("gamesim.new_session_share", "fraction", share("gamesim.new_session"))
	if n := len(ex.polls.us); n > 0 {
		m.set("scheduler.fleetload_polls", "count", float64(n))
		m.set("scheduler.fleetload_busy_ms", "ms", self["scheduler.fleetload"]/1e6)
		m.setN("scheduler.fleetload_us_p50", "us", stats.Percentile(ex.polls.us, 50), n)
		m.setN("scheduler.fleetload_us_p99", "us", stats.Percentile(ex.polls.us, 99), n)
		m.set("scheduler.fleetload_share", "fraction", share("scheduler.fleetload"))
		m.set("scheduler.headroom_mean", "fraction", ex.polls.headroom/float64(n))
	}
	if spec.policy == core.PolicyCoCG {
		m.set("predictor.observe_calls", "count", traced.sessionSeconds)
		m.set("predictor.hit_rate", "fraction", traced.hitRate)
	}

	// Jobs = nproc against the serial baseline.
	c = fix.newCluster(runtime.NumCPU())
	runtime.GC()
	jobsWall := fix.runEvented(c, &pollStats{})
	if out := inspect(c, len(fix.sched)); out.digest != base.digest {
		res.Problems = append(res.Problems, fmt.Sprintf("Jobs=%d output digest differs from Jobs=1", runtime.NumCPU()))
	}
	m.set("platform.jobs_speedup", "ratio", baseWall/jobsWall)

	// Probes. The placement-scan and forecast probes read the traced run's
	// own warm state when it ran CoCG, else a warm CoCG rack.
	warm := c
	if spec.policy != core.PolicyCoCG {
		warm = warmCluster(fix.sys, core.PolicyCoCG, o.seed)
	}
	if ex.probe != nil && ex.probe.servers > 0 {
		setScoreProbe(m, ex.probe)
	} else {
		setScoreProbe(m, probeScore(fix.sys, warm, o.seed))
	}
	m.set("predictor.forecast_ns", "ns", probeForecast(warm, o))
	probeCommon(m, fix.sys, spec.policy, o)
	fillPerLayer(m)
	return res, nil
}
