package platform_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

// The golden suite: Tick, Run and RunEvented share one advance loop, so
// submitting each arrival at its second and calling Tick once per second must
// reproduce RunEvented byte-for-byte — records, placement counters, queue
// state, per-server peaks and tick counts — and both must reproduce the
// digests taken from the per-second loop before the loops were merged, both
// when every second is uncontended (steady policy) and when requests chase
// measured utilization (adaptive policy).

// flatSteadyCtl is a constant-request controller.
type flatSteadyCtl struct{ req resources.Vector }

func (f *flatSteadyCtl) Tick(resources.Vector) resources.Vector { return f.req }
func (f *flatSteadyCtl) Loading() bool                          { return false }

// adaptiveCtl tracks measured utilization: every Tick call is observable.
type adaptiveCtl struct{ req resources.Vector }

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
type steadyTestPolicy struct{ regulates int64 }

func (p *steadyTestPolicy) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	tot := spec.WorstCaseDemand()
	for _, h := range srv.Hosted {
		tot = tot.Add(h.Spec.WorstCaseDemand())
	}
	for d := range tot {
		if tot[d] > srv.Capacity[d] {
			return 0, false
		}
	}
	return 0, true
}
func (p *steadyTestPolicy) NewController(spec *gamesim.GameSpec, _ int64) (platform.Controller, error) {
	return &flatSteadyCtl{req: spec.WorstCaseDemand()}, nil
}
func (p *steadyTestPolicy) Regulate(*platform.Server) { p.regulates++ }
func (p *steadyTestPolicy) ticks() int64              { return p.regulates }

// adaptiveTestPolicy hands out adapting controllers, so a skipped second
// would change every later request.
type adaptiveTestPolicy struct{ regulates int64 }

func (p *adaptiveTestPolicy) Score(srv *platform.Server, _ *gamesim.GameSpec) (float64, bool) {
	return 0, len(srv.Hosted) < 3
}
func (p *adaptiveTestPolicy) NewController(*gamesim.GameSpec, int64) (platform.Controller, error) {
	return &adaptiveCtl{req: resources.FullServer}, nil
}
func (p *adaptiveTestPolicy) Regulate(*platform.Server) { p.regulates++ }
func (p *adaptiveTestPolicy) ticks() int64              { return p.regulates }

const (
	goldenServers = 16
	goldenHorizon = simclock.Seconds(3000)
	goldenRate    = 0.02
)

// goldenRun drives one cluster over the shared seed workload, either by
// submitting each second's arrivals and calling Tick, or through RunEvented.
func goldenRun(pol countedPolicy, evented bool) *platform.Cluster {
	c := platform.NewCluster(goldenServers, pol)
	c.StarveLimit = 2 * simclock.Minute
	gen := workload.NewGenerator(nil, 11)
	sched := workload.NewMixStream(gen, gamesim.AllGames(), goldenRate, 23).Schedule(0, goldenHorizon)
	if evented {
		if err := c.RunEvented(goldenHorizon, sched); err != nil {
			panic(err)
		}
		return c
	}
	for _, a := range sched {
		for c.Clock.Now() < a.Submitted {
			c.Tick()
		}
		c.Submit(a)
	}
	for c.Clock.Now() < goldenHorizon {
		c.Tick()
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

// goldenDigests are goldenDigest's values for goldenRun's workload, taken from
// the per-second Feed+Tick loop (at -jobs 1 and 8 alike) before Tick, Run and
// RunEvented shared one advance loop.
var goldenDigests = map[string]string{
	"steady-bulk":       "8894514aa1390a86effb5e6949fb97e2b3a5fe00a1eb0f7f8d1a4d42a9bddb7b",
	"adaptive-fallback": "2d221a8d58540e43303c55307f71d47b0ad02ce0ec458b6349f4ee5d3eaed1cc",
}

// goldenDigest is the sha256 of everything a run leaves behind: the records'
// exact bytes, the placement counters, the queue state, the clock, the
// executed server-seconds and every server's peak utilization and tick counts.
func goldenDigest(c *platform.Cluster, ticks int64) string {
	h := sha256.New()
	h.Write(encodeRecords(c.Records()))
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []int{c.Placements, c.RejectedTicks, c.FailedPlacements,
		len(c.Pending), c.RunningSessions(), int(c.Clock.Now()), int(ticks)} {
		put(uint64(v))
	}
	for _, srv := range c.Servers {
		for _, f := range srv.PeakUtilization() {
			put(math.Float64bits(f))
		}
		s, u := srv.TickCounts()
		put(s)
		put(u)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEventedMatchesLegacyGolden is the driver's equivalence gate: the
// per-second Tick loop and RunEvented must leave byte-identical outputs, and
// both must hash to the digest the pre-merge per-second loop produced.
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
			base := goldenRun(basePol, false)
			baseRecs := base.Records()
			if len(baseRecs) == 0 {
				t.Fatal("seed workload completed no sessions; golden comparison would be vacuous")
			}
			if got := goldenDigest(base, basePol.ticks()); got != goldenDigests[tc.name] {
				t.Errorf("per-second Tick loop digest %s, want %s", got, goldenDigests[tc.name])
			}

			pol := tc.mk()
			got := goldenRun(pol, true)
			if d := goldenDigest(got, pol.ticks()); d != goldenDigests[tc.name] {
				t.Errorf("RunEvented digest %s, want %s", d, goldenDigests[tc.name])
			}
			if !bytes.Equal(encodeRecords(got.Records()), encodeRecords(baseRecs)) {
				t.Errorf("records diverge from the Tick loop (%d vs %d records)", len(got.Records()), len(baseRecs))
			}
			if got.Placements != base.Placements || got.RejectedTicks != base.RejectedTicks ||
				got.FailedPlacements != base.FailedPlacements {
				t.Errorf("counters diverge: placements %d/%d rejected %d/%d failed %d/%d",
					got.Placements, base.Placements, got.RejectedTicks, base.RejectedTicks,
					got.FailedPlacements, base.FailedPlacements)
			}
			if len(got.Pending) != len(base.Pending) || got.RunningSessions() != base.RunningSessions() {
				t.Errorf("queue state diverges: pending %d/%d running %d/%d",
					len(got.Pending), len(base.Pending), got.RunningSessions(), base.RunningSessions())
			}
			if pol.ticks() != basePol.ticks() {
				t.Errorf("every hosting server-second must tick: %d vs %d", pol.ticks(), basePol.ticks())
			}
			for i, srv := range got.Servers {
				want := base.Servers[i]
				if srv.PeakUtilization() != want.PeakUtilization() {
					t.Errorf("server %d peak utilization %v, Tick loop %v", i, srv.PeakUtilization(), want.PeakUtilization())
				}
				gs, gu := srv.TickCounts()
				ws, wu := want.TickCounts()
				if gs != ws || gu != wu {
					t.Errorf("server %d tick counts %d/%d, Tick loop %d/%d", i, gs, gu, ws, wu)
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
	c.StarveLimit = 0 // every rejected arrival keeps retrying
	gen := workload.NewGenerator(nil, 5)
	stream := workload.NewMixStream(gen, gamesim.AllGames(), 0.05, 9)
	departures := 0
	for i := 0; i < 2500; i++ {
		if err := c.RunEvented(1, stream.Schedule(c.Clock.Now(), 1)); err != nil {
			t.Fatal(err)
		}
		if i%37 != 0 {
			continue
		}
		for _, srv := range c.Servers {
			var req, util resources.Vector
			for _, h := range srv.Hosted {
				req = req.Add(h.Request)
				util = util.Add(h.Granted)
			}
			if srv.RequestTotal().Vector() != req {
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
// per executed server-second, so the log is the visit order.
type visitLogPolicy struct{ visits []int }

func (p *visitLogPolicy) Score(srv *platform.Server, _ *gamesim.GameSpec) (float64, bool) {
	return 0, len(srv.Hosted) == 0
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
