package main

import (
	"time"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
)

// span is one timed call into a layer: name (the metric stem), start and end
// in nanoseconds since the tracer started, the span that caused it (-1 for a
// root) and the rep it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, rep int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Rep: rep})
	return len(t.spans) - 1
}

// beginRep opens a root span; its id doubles as the rep number of every span
// beneath it.
func (t *tracer) beginRep(name string) int {
	id := t.begin(name, -1, -1)
	t.spans[id].Rep = id
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, over the spans of one rep.
func selfTimes(spans []span, rep int) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Rep == rep && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.Rep == rep {
			out[s.Name] += float64(s.End - s.Start - child[i])
		}
	}
	return out
}

// durations returns the durations, in the given unit's nanoseconds, of every
// span of the rep with the given name.
func durations(spans []span, rep int, name string, unitNS float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Rep == rep && s.Name == name {
			out = append(out, float64(s.End-s.Start)/unitNS)
		}
	}
	return out
}

// pollStats accumulates the fleet-summary polls of one rep.
type pollStats struct {
	us       []float64
	headroom float64
}

func (p *pollStats) poll(fs platform.FleetSummarizer, servers []*platform.Server, out *platform.FleetLoad) {
	t := time.Now()
	fs.FleetLoadInto(servers, out)
	p.us = append(p.us, float64(time.Since(t))/1e3)
	p.headroom += out.MeanHeadroom
}

// scoreProbe samples the placement scan's cost on live state: on every 64th
// placement round it prepares the policy and sweeps ScoreScratch over every
// server for the head arrival (cold: stale forecast caches refill), then
// sweeps again (warm: the caches answer).
type scoreProbe struct {
	coldNS, warmNS float64
	servers        int
	ok             int
}

const scoreProbeEvery = 64

func (p *scoreProbe) sample(c *platform.Cluster, a platform.Arrival) {
	ss, isScorer := c.Policy.(platform.ScratchScorer)
	pp, isPreparer := c.Policy.(platform.PlacementPreparer)
	if !isScorer || !isPreparer {
		return
	}
	scratch := ss.NewScratch()
	sweep := func() int {
		ok := 0
		for _, srv := range c.Servers {
			if _, admits := ss.ScoreScratch(srv, a.Spec, a.Habit, scratch); admits {
				ok++
			}
		}
		return ok
	}
	t0 := time.Now()
	pp.PreparePlacement(c.Servers)
	sweep()
	t1 := time.Now()
	ok := sweep()
	t2 := time.Now()
	p.coldNS += float64(t1.Sub(t0))
	p.warmNS += float64(t2.Sub(t1))
	p.servers += len(c.Servers)
	p.ok += ok
}

// exploded replays Cluster.RunEvented from public entry points only, one
// virtual second at a time, so every call into a layer can be timed from
// outside. Beside the spans it records wall time per admission and per
// placement frame.
type exploded struct {
	tr  *tracer
	rep int // the rep's span id and rep number

	admitMS []float64 // offer -> hosted, successful admissions
	frameMS []float64 // wall per 5-virtual-second placement frame
	waitVS  []float64 // virtual seconds from Submitted to placement
	picks   int
	rounds  int
	polls   pollStats
	probe   *scoreProbe // non-nil: sample the placement scan
}

// begin opens a span directly beneath the rep's.
func (e *exploded) begin(name string) int { return e.tr.begin(name, e.rep, e.rep) }

// run advances a fresh cluster for horizon virtual seconds over the
// schedule. It must produce exactly RunEvented's records and counters.
func (e *exploded) run(c *platform.Cluster, horizon simclock.Seconds, sched []platform.Arrival, poll bool) {
	fs, _ := c.Policy.(platform.FleetSummarizer)
	var load platform.FleetLoad
	idx := 0
	frameStart := time.Now()
	for now := c.Clock.Now(); now < horizon; now = c.Clock.Now() {
		for idx < len(sched) && sched[idx].Submitted <= now {
			c.Pending = append(c.Pending, sched[idx])
			idx++
		}
		if simclock.IsFrameBoundary(now) && len(c.Pending) > 0 {
			e.placeRound(c, now)
		}
		id := e.begin("platform.tick")
		for _, srv := range c.Servers {
			srv.Tick(c.Policy)
		}
		e.tr.end(id)
		c.Clock.Advance(1)
		if simclock.IsFrameBoundary(c.Clock.Now()) {
			if poll && fs != nil {
				id := e.begin("scheduler.fleetload")
				e.polls.poll(fs, c.Servers, &load)
				e.tr.end(id)
			}
			t := time.Now()
			e.frameMS = append(e.frameMS, float64(t.Sub(frameStart))/1e6)
			frameStart = t
		}
	}
}

// placeRound is Cluster.tryPlace: FIFO over the queue, every arrival offered
// to the policy once, an arrival past StarveLimit blocking younger ones.
func (e *exploded) placeRound(c *platform.Cluster, now simclock.Seconds) {
	if e.probe != nil && e.rounds%scoreProbeEvery == 0 {
		id := e.begin("scheduler.score_probe")
		e.probe.sample(c, c.Pending[0])
		e.tr.end(id)
	}
	e.rounds++
	remaining := c.Pending[:0]
	blocked := false
	for _, a := range c.Pending {
		if blocked {
			remaining = append(remaining, a)
			continue
		}
		offered := time.Now()
		e.picks++
		id := e.begin("platform.pick")
		srv := c.PickServer(a)
		e.tr.end(id)
		if srv == nil {
			c.RejectedTicks++
			remaining = append(remaining, a)
			if c.StarveLimit > 0 && now-a.Submitted > c.StarveLimit {
				blocked = true
			}
			continue
		}
		id = e.begin("gamesim.new_session")
		sess, err := gamesim.NewPlayerSession(a.Spec, a.Script, a.Habit, a.SessionSeed)
		e.tr.end(id)
		if err != nil {
			c.FailedPlacements++
			continue
		}
		id = e.begin("scheduler.new_controller")
		ctl, err := c.Policy.NewController(a.Spec, a.Habit)
		e.tr.end(id)
		if err != nil {
			c.FailedPlacements++
			continue
		}
		srv.Add(a.Spec, sess, ctl)
		c.Placements++
		e.admitMS = append(e.admitMS, float64(time.Since(offered))/1e6)
		e.waitVS = append(e.waitVS, float64(now-a.Submitted))
	}
	c.Pending = remaining
}
