package platform_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

// The golden equivalence suite: the event-driven cluster driver must
// reproduce the legacy per-second Feed+Tick loop byte-for-byte — records,
// placement counters, queue state, per-server peaks and tick counts — at every
// -jobs setting, both when every second is uncontended (steady policy) and
// when requests chase measured utilization (adaptive policy).

// flatSteadyCtl is a constant-request controller.
type flatSteadyCtl struct{ req resources.Vector }

func (f *flatSteadyCtl) Name() string                           { return "flat-steady" }
func (f *flatSteadyCtl) Tick(resources.Vector) resources.Vector { return f.req }
func (f *flatSteadyCtl) Loading() bool                          { return false }

// adaptiveCtl tracks measured utilization: every Tick call is observable.
type adaptiveCtl struct{ req resources.Vector }

func (a *adaptiveCtl) Name() string  { return "adaptive" }
func (a *adaptiveCtl) Loading() bool { return false }
func (a *adaptiveCtl) Tick(util resources.Vector) resources.Vector {
	a.req = util.Scale(1.25).Add(resources.Uniform(6)).Clamp(0, 100)
	return a.req
}

// countedPolicy exposes how many per-second server ticks actually executed:
// Regulate runs exactly once per executed tick.
type countedPolicy interface {
	platform.Policy
	ticks() int64
}

// steadyTestPolicy admits by worst-case demand sums and hands every session a
// flat request covering its spec's WorstCaseDemand, so every second of every
// hosted set it builds is uncontended.
type steadyTestPolicy struct{ regulates atomic.Int64 }

func (p *steadyTestPolicy) Name() string { return "steady-test" }
func (p *steadyTestPolicy) Admit(srv *platform.Server, spec *gamesim.GameSpec, _ int64) bool {
	tot := spec.WorstCaseDemand()
	for _, h := range srv.Hosted {
		tot = tot.Add(h.Spec.WorstCaseDemand())
	}
	for d := range tot {
		if tot[d] > srv.Capacity[d] {
			return false
		}
	}
	return true
}
func (p *steadyTestPolicy) NewController(spec *gamesim.GameSpec, _ int64) (platform.Controller, error) {
	return &flatSteadyCtl{req: spec.WorstCaseDemand()}, nil
}
func (p *steadyTestPolicy) Regulate(*platform.Server) { p.regulates.Add(1) }
func (p *steadyTestPolicy) ConcurrentTickSafe() bool  { return true }
func (p *steadyTestPolicy) ticks() int64              { return p.regulates.Load() }

// adaptiveTestPolicy hands out adapting controllers, so a skipped second
// would change every later request.
type adaptiveTestPolicy struct{ regulates atomic.Int64 }

func (p *adaptiveTestPolicy) Name() string { return "adaptive-test" }
func (p *adaptiveTestPolicy) Admit(srv *platform.Server, _ *gamesim.GameSpec, _ int64) bool {
	return len(srv.Hosted) < 3
}
func (p *adaptiveTestPolicy) NewController(*gamesim.GameSpec, int64) (platform.Controller, error) {
	return &adaptiveCtl{req: resources.FullServer}, nil
}
func (p *adaptiveTestPolicy) Regulate(*platform.Server) { p.regulates.Add(1) }
func (p *adaptiveTestPolicy) ConcurrentTickSafe() bool  { return true }
func (p *adaptiveTestPolicy) ticks() int64              { return p.regulates.Load() }

const (
	goldenServers = 16
	goldenHorizon = simclock.Seconds(3000)
	goldenRate    = 0.02
)

// goldenRun drives one cluster over the shared seed workload, either through
// the legacy per-second loop or the event-driven driver.
func goldenRun(pol countedPolicy, evented bool, jobs int) *platform.Cluster {
	c := platform.NewCluster(goldenServers, pol)
	c.Jobs = jobs
	c.StarveLimit = 2 * simclock.Minute
	gen := workload.NewGenerator(nil, 11)
	stream := workload.NewMixStream(gen, gamesim.AllGames(), goldenRate, 23)
	if evented {
		c.RunEvented(goldenHorizon, stream.Schedule(0, goldenHorizon))
	} else {
		for i := simclock.Seconds(0); i < goldenHorizon; i++ {
			stream.Feed(c)
			c.Tick()
		}
	}
	return c
}

// encodeRecords serializes records to bytes with exact float64 bit patterns,
// so equality below means byte-for-byte identical outputs.
func encodeRecords(recs []platform.Record) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		buf.WriteString(r.Game)
		buf.WriteByte(0)
		for _, f := range []float64{
			float64(r.Arrived), float64(r.Finished), float64(r.Elapsed),
			float64(r.ExecSeconds), r.AvgFPS, r.FPSRatio, r.GoodFPSFrac,
			r.Degraded, r.LoadStolen, r.P5FPS,
		} {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// TestEventedMatchesLegacyGolden is the tentpole equivalence gate: the
// event-driven driver and the parallel tick fan-out must reproduce the legacy
// serial loop's outputs byte-for-byte at -jobs 1 and 8.
func TestEventedMatchesLegacyGolden(t *testing.T) {
	cases := []struct {
		name string
		mk   func() countedPolicy
	}{
		{"steady-bulk", func() countedPolicy { return &steadyTestPolicy{} }},
		{"adaptive-fallback", func() countedPolicy { return &adaptiveTestPolicy{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			basePol := tc.mk()
			base := goldenRun(basePol, false, 1)
			baseRecs := base.Records()
			if len(baseRecs) == 0 {
				t.Fatal("seed workload completed no sessions; golden comparison would be vacuous")
			}
			baseBytes := encodeRecords(baseRecs)

			variants := []struct {
				name    string
				evented bool
				jobs    int
			}{
				{"legacy-jobs8", false, 8},
				{"event-jobs1", true, 1},
				{"event-jobs8", true, 8},
			}
			for _, v := range variants {
				pol := tc.mk()
				got := goldenRun(pol, v.evented, v.jobs)
				if !bytes.Equal(encodeRecords(got.Records()), baseBytes) {
					t.Errorf("%s: records diverge from legacy-jobs1 (%d vs %d records)",
						v.name, len(got.Records()), len(baseRecs))
				}
				if got.Placements != base.Placements || got.RejectedTicks != base.RejectedTicks ||
					got.FailedPlacements != base.FailedPlacements {
					t.Errorf("%s: counters diverge: placements %d/%d rejected %d/%d failed %d/%d",
						v.name, got.Placements, base.Placements,
						got.RejectedTicks, base.RejectedTicks,
						got.FailedPlacements, base.FailedPlacements)
				}
				if len(got.Pending) != len(base.Pending) || got.RunningSessions() != base.RunningSessions() {
					t.Errorf("%s: queue state diverges: pending %d/%d running %d/%d",
						v.name, len(got.Pending), len(base.Pending),
						got.RunningSessions(), base.RunningSessions())
				}
				if got.Clock.Now() != base.Clock.Now() {
					t.Errorf("%s: clock diverges: %d vs %d", v.name, got.Clock.Now(), base.Clock.Now())
				}
				if pol.ticks() != basePol.ticks() {
					t.Errorf("%s: every hosting server-second must tick: %d vs %d",
						v.name, pol.ticks(), basePol.ticks())
				}
				for i, srv := range got.Servers {
					want := base.Servers[i]
					if srv.PeakUtilization() != want.PeakUtilization() {
						t.Errorf("%s: server %d peak utilization %v, legacy %v",
							v.name, i, srv.PeakUtilization(), want.PeakUtilization())
					}
					gs, gu := srv.TickCounts()
					ws, wu := want.TickCounts()
					if gs != ws || gu != wu {
						t.Errorf("%s: server %d tick counts %d/%d, legacy %d/%d", v.name, i, gs, gu, ws, wu)
					}
				}
			}
		})
	}
}

// TestRunningTotalsMatchRecompute checks the incrementally maintained
// RequestTotal and Utilization stay bit-identical to the fold-in-hosted-order
// recompute across admissions, regulated ticks, and completion sweeps.
func TestRunningTotalsMatchRecompute(t *testing.T) {
	pol := &adaptiveTestPolicy{}
	c := platform.NewCluster(8, pol)
	gen := workload.NewGenerator(nil, 5)
	stream := workload.NewMixStream(gen, gamesim.AllGames(), 0.05, 9)
	departures := 0
	for i := 0; i < 2500; i++ {
		stream.Feed(c)
		c.Tick()
		if i%37 != 0 {
			continue
		}
		for _, srv := range c.Servers {
			var req, util resources.Vector
			for _, h := range srv.Hosted {
				req = req.Add(h.Request)
				util = util.Add(h.Granted)
			}
			if srv.RequestTotal() != req {
				t.Fatalf("t=%d server %d: RequestTotal %v != fold %v", i, srv.ID, srv.RequestTotal(), req)
			}
			if srv.Utilization() != util {
				t.Fatalf("t=%d server %d: Utilization %v != fold %v", i, srv.ID, srv.Utilization(), util)
			}
			departures += len(srv.Records)
		}
	}
	if departures == 0 {
		t.Fatal("no session ever completed; the post-sweep recompute was never exercised")
	}
}

// TestStreamingSinksMatchSliceAggregation runs the identical workload once
// retaining records and once streaming them into the incremental aggregators:
// throughput must match bit-for-bit, the QoS summary up to float association,
// and a sink-equipped server must retain nothing.
func TestStreamingSinksMatchSliceAggregation(t *testing.T) {
	run := func(sink platform.RecordSink) *platform.Cluster {
		c := platform.NewCluster(goldenServers, &steadyTestPolicy{})
		c.Jobs = 8
		c.StarveLimit = 2 * simclock.Minute
		if sink != nil {
			c.SetSink(sink)
		}
		gen := workload.NewGenerator(nil, 11)
		stream := workload.NewMixStream(gen, gamesim.AllGames(), goldenRate, 23)
		c.RunEvented(goldenHorizon, stream.Schedule(0, goldenHorizon))
		return c
	}

	recs := run(nil).Records()
	if len(recs) == 0 {
		t.Fatal("workload completed no sessions")
	}

	thr := &platform.ThroughputAgg{}
	qos := &platform.QoSAgg{}
	streamed := run(platform.TeeSink{thr, qos})
	if got := streamed.Records(); len(got) != 0 {
		t.Fatalf("sink-equipped cluster retained %d records", len(got))
	}

	if thr.Sessions() != len(recs) {
		t.Fatalf("ThroughputAgg consumed %d sessions, slice run produced %d", thr.Sessions(), len(recs))
	}
	// One game pinned to a reference duration exercises the ref branch.
	ref := map[string]float64{"Contra": 600}
	for _, r := range []map[string]float64{nil, ref} {
		if got, want := thr.Value(r), platform.Throughput(recs, r); got != want {
			t.Errorf("ThroughputAgg.Value(%v) = %v, Throughput = %v (must be bitwise equal)", r, got, want)
		}
	}

	want := platform.Summarize(recs)
	got := qos.Result()
	if got.Sessions != want.Sessions || got.ViolatedFrac != want.ViolatedFrac {
		t.Errorf("QoSAgg sessions/violations %d/%v, Summarize %d/%v",
			got.Sessions, got.ViolatedFrac, want.Sessions, want.ViolatedFrac)
	}
	const tol = 1e-12
	if math.Abs(got.MeanFPSRatio-want.MeanFPSRatio) > tol ||
		math.Abs(got.MeanGoodFPS-want.MeanGoodFPS) > tol ||
		math.Abs(got.MeanDegraded-want.MeanDegraded) > tol {
		t.Errorf("QoSAgg means diverge beyond association tolerance:\nagg:   %+v\nslice: %+v", got, want)
	}
}

// TestRunEventedRejectsUnsortedSchedule pins the schedule contract: a
// schedule that steps backwards, starts before the cluster's clock or reaches
// the run's end (such an arrival would never be enqueued) is an error reported
// before anything moves, while several arrivals on one second are as valid as
// ever.
func TestRunEventedRejectsUnsortedSchedule(t *testing.T) {
	at := arrivalsAt
	cases := []struct {
		name     string
		start    simclock.Seconds
		schedule []platform.Arrival
		wantErr  bool
	}{
		{"ascending", 0, at(0, 5, 9), false},
		{"several on one second", 0, at(5, 5, 5, 10), false},
		{"empty", 0, nil, false},
		{"out of order", 0, at(0, 10, 5), true},
		{"before the clock", 20, at(10, 30), true},
		{"last second of the run", 20, at(30, 79), false},
		{"at the end of the run", 0, at(10, 60), true},
		{"past the end of the run", 20, at(30, 90), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := platform.NewCluster(2, &steadyTestPolicy{})
			c.Clock.Advance(tc.start)
			err := c.RunEvented(60, tc.schedule)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("valid schedule refused: %v", err)
				}
				if got := c.Placements + len(c.Pending); got != len(tc.schedule) {
					t.Errorf("%d of %d arrivals reached the cluster", got, len(tc.schedule))
				}
				return
			}
			if err == nil {
				t.Fatal("schedule accepted")
			}
			if c.Clock.Now() != tc.start || len(c.Pending) != 0 || c.Placements != 0 {
				t.Errorf("refused run still moved the cluster: clock %d, %d pending, %d placed",
					c.Clock.Now(), len(c.Pending), c.Placements)
			}
		})
	}
}

// visitLogPolicy records the order servers are ticked in: Regulate runs once
// per executed server-second. It is not a ConcurrentTicker, so the cluster
// ticks serially and the log is the visit order.
type visitLogPolicy struct{ visits []int }

func (p *visitLogPolicy) Name() string { return "visit-log" }
func (p *visitLogPolicy) Admit(srv *platform.Server, _ *gamesim.GameSpec, _ int64) bool {
	return len(srv.Hosted) == 0
}
func (p *visitLogPolicy) NewController(*gamesim.GameSpec, int64) (platform.Controller, error) {
	return &adaptiveCtl{req: resources.FullServer}, nil
}
func (p *visitLogPolicy) Regulate(srv *platform.Server) { p.visits = append(p.visits, srv.ID) }

// arrivalsAt returns one Contra arrival per given submission second.
func arrivalsAt(secs ...simclock.Seconds) []platform.Arrival {
	gen := workload.NewGenerator(nil, 5)
	out := make([]platform.Arrival, len(secs))
	for i, s := range secs {
		out[i] = gen.Next(gamesim.Contra())
		out[i].Submitted = s
	}
	return out
}

// TestRunEventedVisitsEachServerOncePerFrame is the stop rule seen from a
// server: with an arrival on every second the fleet still stops on frame
// boundaries only, so each hosting server runs its five seconds back to back
// before the next server is touched — not one second of every server in turn.
func TestRunEventedVisitsEachServerOncePerFrame(t *testing.T) {
	const horizon = 12 * simclock.FrameLen
	pol := &visitLogPolicy{}
	c := platform.NewCluster(3, pol)
	var every []simclock.Seconds
	for s := simclock.Seconds(0); s < horizon; s++ {
		every = append(every, s)
	}
	if err := c.RunEvented(horizon, arrivalsAt(every...)); err != nil {
		t.Fatal(err)
	}
	if c.Placements != 3 || len(c.Pending) != len(every)-3 {
		t.Fatalf("%d placed, %d pending; want one session per server and the rest queued", c.Placements, len(c.Pending))
	}
	// Second 0's arrival lands on server 0 at once, the next two at the second
	// boundary: frame 0 is ticked by server 0 alone and every later frame by
	// all three, five seconds each, in server order.
	var want []int
	for f := 0; f < int(horizon/simclock.FrameLen); f++ {
		for id := 0; id < 3 && (f > 0 || id == 0); id++ {
			for s := simclock.Seconds(0); s < simclock.FrameLen; s++ {
				want = append(want, id)
			}
		}
	}
	if len(pol.visits) != len(want) {
		t.Fatalf("%d server-seconds ticked, want %d", len(pol.visits), len(want))
	}
	for i := range want {
		if pol.visits[i] != want[i] {
			t.Fatalf("server-second %d ran on server %d, want %d: a server's frame is not contiguous", i, pol.visits[i], want[i])
		}
	}
}

// TestRunEventedEnqueuesTheTail covers the stop rule's edges. Arrivals inside
// the run's last frame are never placed by that run — its last stop is its end,
// where the loop no longer executes — but they must all be in Pending on
// return, in schedule order, and land at the next run's first boundary. An
// arrival exactly on a boundary is placed on it; a run of no length is a no-op.
func TestRunEventedEnqueuesTheTail(t *testing.T) {
	c := platform.NewCluster(8, &adaptiveTestPolicy{})
	tail := arrivalsAt(1, 2, 3, 4)
	if err := c.RunEvented(simclock.FrameLen, tail); err != nil {
		t.Fatal(err)
	}
	if c.Clock.Now() != simclock.FrameLen || c.Placements != 0 || len(c.Pending) != len(tail) {
		t.Fatalf("after the first frame: clock %d, %d placed, %d pending; want %d, 0, %d",
			c.Clock.Now(), c.Placements, len(c.Pending), simclock.FrameLen, len(tail))
	}
	for i, a := range c.Pending {
		if a.Submitted != tail[i].Submitted || a.SessionSeed != tail[i].SessionSeed {
			t.Fatalf("pending[%d] is the arrival of second %d, want second %d", i, a.Submitted, tail[i].Submitted)
		}
	}
	// The next run places them on its first second, and an arrival due exactly
	// on the following boundary on that boundary.
	if err := c.RunEvented(2*simclock.FrameLen, arrivalsAt(2*simclock.FrameLen)); err != nil {
		t.Fatal(err)
	}
	if c.Placements != len(tail)+1 || len(c.Pending) != 0 {
		t.Fatalf("after the second run: %d placed, %d pending; want %d, 0", c.Placements, len(c.Pending), len(tail)+1)
	}
	at := map[simclock.Seconds]int{}
	for _, srv := range c.Servers {
		for _, h := range srv.Hosted {
			at[h.Arrived]++
		}
	}
	if at[simclock.FrameLen] != len(tail) || at[2*simclock.FrameLen] != 1 {
		t.Errorf("sessions arrived at %v; want %d at second %d and 1 at second %d", at, len(tail), simclock.FrameLen, 2*simclock.FrameLen)
	}

	for _, d := range []simclock.Seconds{0, -3} {
		before := c.Clock.Now()
		if err := c.RunEvented(d, nil); err != nil || c.Clock.Now() != before || len(c.Pending) != 0 {
			t.Errorf("RunEvented(%d, nil): err %v, clock %d -> %d, %d pending; want a no-op", d, err, before, c.Clock.Now(), len(c.Pending))
		}
		if err := c.RunEvented(d, arrivalsAt(before)); err == nil || c.Clock.Now() != before || len(c.Pending) != 0 {
			t.Errorf("RunEvented(%d, one arrival): err %v, %d pending; want the schedule refused", d, err, len(c.Pending))
		}
	}
}
