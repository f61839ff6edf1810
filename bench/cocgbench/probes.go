package main

import (
	"time"

	"cocg/internal/coordinator"
	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/scheduler"
	"cocg/internal/simclock"
	"cocg/internal/streaming"
	"cocg/internal/workload"
)

// A probe is a timed loop over one layer's public function on state built
// for it or captured from the run. Probes run in every traced run, so their
// metrics exist on all four workloads.

// warmCluster builds a throwaway rack that has been running for twenty
// virtual minutes: servers hold sessions in mixed stages, predictors have
// history, and nothing is queued.
func warmCluster(sys *core.System, kind core.PolicyKind, seed int64) *platform.Cluster {
	const warmup = 20 * simclock.Minute
	c := sys.NewCluster(32, kind)
	c.StarveLimit = starveLimit
	c.Jobs = 1
	gen := sys.Generator(seed + 7)
	sched := workload.NewMixStream(gen, gamesim.AllGames(), 0.15, seed+11).Schedule(0, warmup)
	c.RunEvented(warmup, sched)
	c.Pending = nil
	return c
}

// probeBudget is how long each timed probe loop runs.
func (o options) probeBudget() time.Duration {
	if o.short {
		return time.Millisecond
	}
	return 20 * time.Millisecond
}

// perOp times fn repeatedly for the budget and returns nanoseconds per unit,
// where each call to fn does units of work.
func perOp(budget time.Duration, units int, fn func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < budget {
		fn()
		calls++
	}
	return float64(time.Since(start)) / float64(calls*units)
}

func setScoreProbe(m Metrics, p *scoreProbe) {
	if p.servers == 0 {
		return
	}
	n := float64(p.servers)
	m.set("scheduler.score_cold_ns_per_server", "ns", p.coldNS/n)
	m.set("scheduler.score_warm_ns_per_server", "ns", p.warmNS/n)
	m.set("scheduler.admit_ok_ratio", "ratio", float64(p.ok)/n)
}

// probeScore samples the placement scan on a warm cluster, advancing one
// placement frame between samples so every cold sweep finds stale caches.
func probeScore(sys *core.System, c *platform.Cluster, seed int64) *scoreProbe {
	p := &scoreProbe{}
	gen := sys.Generator(seed + 17)
	games := gamesim.AllGames()
	for i := 0; i < 16; i++ {
		c.TickSpan(simclock.FrameLen)
		p.sample(c, gen.Next(games[i%len(games)]))
	}
	return p
}

// probeForecast times ForecastDemandInto over the policy's horizon on the
// warm predictors of every session the cluster hosts.
func probeForecast(c *platform.Cluster, o options) float64 {
	var prs []*predictor.Predictor
	for _, srv := range c.Servers {
		for _, h := range srv.Hosted {
			if ctl, ok := h.Controller.(*scheduler.Controller); ok {
				prs = append(prs, ctl.Predictor())
			}
		}
	}
	if len(prs) == 0 {
		return 0
	}
	const horizonFrames = 120 // scheduler.Config's default HorizonFrames
	var scratch predictor.ForecastScratch
	var dst []resources.Vector
	return perOp(o.probeBudget(), len(prs), func() {
		for _, pr := range prs {
			dst = pr.ForecastDemandInto(horizonFrames, dst[:0], &scratch)
		}
	})
}

// probeCommon runs the probes that need no state from the run.
func probeCommon(m Metrics, sys *core.System, kind core.PolicyKind, o options) {
	seed, budget := o.seed, o.probeBudget()
	games := gamesim.AllGames()
	pools := sys.HabitPools()
	habitOf := func(spec *gamesim.GameSpec) int64 {
		if pool := pools[spec.Name]; len(pool) > 0 {
			return pool[0]
		}
		return seed
	}

	// gamesim: one solo session per game stepped at full supply, per second
	// and in bulk over each certified horizon.
	solo := func() []*gamesim.Session {
		var out []*gamesim.Session
		for _, spec := range games {
			if sess, err := gamesim.NewPlayerSession(spec, 0, habitOf(spec), seed); err == nil {
				out = append(out, sess)
			}
		}
		return out
	}
	steps := 0
	t0 := time.Now()
	for _, sess := range solo() {
		for !sess.Done() {
			sess.Step(sess.Demand())
			steps++
		}
	}
	m.setN("gamesim.step_ns", "ns", float64(time.Since(t0))/float64(steps), steps)
	seconds := 0
	t0 = time.Now()
	for _, sess := range solo() {
		for !sess.Done() {
			seconds += sess.StepBulk(resources.FullServer, sess.BulkHorizon())
		}
	}
	m.setN("gamesim.stepbulk_ns_per_second", "ns", float64(time.Since(t0))/float64(seconds), seconds)

	// predictor: a CoCG controller observing each game's solo utilisation
	// trace, one Tick per virtual second.
	cocg := sys.Policy(core.PolicyCoCG)
	var observeNS float64
	observed := 0
	for _, spec := range games {
		trace, err := gamesim.RecordPlayer(spec, 0, habitOf(spec), seed)
		if err != nil {
			continue
		}
		ctl, err := cocg.NewController(spec, habitOf(spec))
		if err != nil {
			continue
		}
		t0 := time.Now()
		for i := range trace.Seconds {
			ctl.Tick(trace.Seconds[i].Demand)
		}
		observeNS += float64(time.Since(t0))
		observed += len(trace.Seconds)
	}
	if observed > 0 {
		m.setN("predictor.observe_ns", "ns", observeNS/float64(observed), observed)
	}

	// scheduler: Regulate over every server of a warm CoCG rack.
	rack := warmCluster(sys, core.PolicyCoCG, seed)
	m.set("scheduler.regulate_ns_per_server", "ns", perOp(budget, len(rack.Servers), func() {
		for _, srv := range rack.Servers {
			rack.Policy.Regulate(srv)
		}
	}))

	// platform: sixty one-second spans against one sixty-second span on two
	// identically built warm clusters under the workload's policy. 1.0 means
	// the bulk path does not engage.
	pairs := int64(5)
	if o.short {
		pairs = 1
	}
	var speedups []float64
	for i := int64(0); i < pairs; i++ {
		a, b := warmCluster(sys, kind, seed+i), warmCluster(sys, kind, seed+i)
		t0 := time.Now()
		for s := 0; s < 60; s++ {
			a.TickSpan(1)
		}
		perSecond := time.Since(t0)
		t0 = time.Now()
		b.TickSpan(60)
		speedups = append(speedups, float64(perSecond)/float64(time.Since(t0)))
	}
	m.setMedian("platform.span_speedup", "ratio", speedups)

	// streaming: encode and decode one frame-batch envelope as the tick walk
	// builds it.
	enc := streaming.DefaultEncoder()
	batch := &streaming.FrameBatch{SessionID: 7, Seq: 42, FPS: 60, Stage: 3, EchoSeq: 20, EchoSentAtMS: 1700000000000}
	batch.BitrateKbps = enc.Encode(batch.FPS, resources.New(60, 70, 40, 30), false)
	batch.Frames = enc.AppendFrames(nil, batch.FPS, batch.BitrateKbps)
	env := &streaming.Envelope{Type: streaming.MsgFrames, Frames: batch}
	var frame []byte
	m.set("streaming.codec_encode_ns", "ns", perOp(budget, 1, func() {
		frame, _ = env.AppendTo(frame[:0]) // a frame batch always encodes
	}))
	var decoded streaming.Envelope
	body := frame[4:] // DecodeFrom takes the frame without its length prefix
	m.set("streaming.codec_decode_ns", "ns", perOp(budget, 1, func() {
		_ = decoded.DecodeFrom(body) // decoding what AppendTo just produced
	}))

	// coordinator: rank the benchmark's two-cluster fleet and a 64-region one.
	for _, size := range []struct {
		name string
		n    int
	}{{"coordinator.rank_ns", 2}, {"coordinator.rank64_ns", 64}} {
		views := make([]coordinator.ClusterView, size.n)
		for i := range views {
			views[i] = coordinator.ClusterView{ID: i, Healthy: true,
				LatencyMS: float64(20 + 7*(i%13)), Headroom: float64((i*37)%100) / 100, LiveSessions: i}
		}
		var order []int
		var scores []float64
		g := 0
		m.set(size.name, "ns", perOp(budget, 1, func() {
			coordinator.RankInto(views, games[g%len(games)], coordinator.RouteWeights{}, 1, &order, &scores)
			g++
		}))
	}
}
