package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// passthroughController requests a constant cap.
type passthroughController struct {
	req     resources.Vector
	loading bool
}

func (p *passthroughController) Name() string { return "test" }
func (p *passthroughController) Tick(resources.Vector) resources.Vector {
	return p.req
}
func (p *passthroughController) Loading() bool { return p.loading }

// admitAllPolicy admits everything with full-capacity requests.
type admitAllPolicy struct{ req resources.Vector }

func (a *admitAllPolicy) Name() string { return "admit-all" }
func (a *admitAllPolicy) Score(*Server, *gamesim.GameSpec) (float64, bool) {
	return 0, true
}
func (a *admitAllPolicy) NewController(*gamesim.GameSpec, int64) (Controller, error) {
	return &passthroughController{req: a.req}, nil
}
func (a *admitAllPolicy) Regulate(*Server) {}

func newTestServer(t *testing.T) (*Server, *simclock.Clock) {
	t.Helper()
	clk := &simclock.Clock{}
	return NewServer(0, resources.FullServer, clk), clk
}

func addSession(t *testing.T, s *Server, spec *gamesim.GameSpec, seed int64, req resources.Vector) *Hosted {
	t.Helper()
	sess, err := gamesim.NewSession(spec, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s.Add(spec, sess, &passthroughController{req: req})
}

func TestServerRunsSessionToCompletion(t *testing.T) {
	srv, clk := newTestServer(t)
	pol := &admitAllPolicy{req: resources.FullServer}
	addSession(t, srv, gamesim.Contra(), 1, resources.FullServer)
	for i := 0; i < 4*3600 && srv.NumHosted() > 0; i++ {
		srv.Tick(pol)
		clk.Tick()
	}
	if srv.NumHosted() != 0 {
		t.Fatal("session did not complete")
	}
	if len(srv.Records) != 1 {
		t.Fatalf("records = %d", len(srv.Records))
	}
	r := srv.Records[0]
	if r.Game != "Contra" || r.Elapsed == 0 || r.FPSRatio < 0.99 {
		t.Errorf("record = %+v", r)
	}
	// The completion record is stamped within the final tick, so Finished
	// may trail Arrived+Elapsed by the not-yet-advanced second.
	if diff := r.Arrived + r.Elapsed - r.Finished; diff < 0 || diff > 1 {
		t.Errorf("time accounting wrong: %+v", r)
	}
}

func TestWorkConservingRedistribution(t *testing.T) {
	// A game capped below its demand still gets full supply while the
	// server has spare capacity.
	srv, clk := newTestServer(t)
	pol := &admitAllPolicy{}
	h := addSession(t, srv, gamesim.CSGO(), 3, resources.Uniform(10)) // cap far below demand
	for i := 0; i < 600 && srv.NumHosted() > 0; i++ {
		srv.Tick(pol)
		clk.Tick()
	}
	if h.Session.Done() {
		t.Skip("session finished unexpectedly fast")
	}
	if h.Session.DegradedFraction() > 0.02 {
		t.Errorf("degraded %.3f despite an idle server", h.Session.DegradedFraction())
	}
}

func TestContentionScalesGrants(t *testing.T) {
	// Several demanding games beyond capacity must be scaled down: total
	// grants never exceed capacity.
	srv, clk := newTestServer(t)
	pol := &admitAllPolicy{}
	for i := int64(0); i < 4; i++ {
		addSession(t, srv, gamesim.DevilMayCry(), 10+i, resources.FullServer)
	}
	for i := 0; i < 1200; i++ {
		srv.Tick(pol)
		clk.Tick()
		u := srv.Utilization()
		for d := range u {
			if u[d] > srv.Capacity[d]+1e-6 {
				t.Fatalf("tick %d: utilization %v exceeds capacity", i, u)
			}
		}
	}
	// With 4 DMC sessions the GPU must saturate at some point.
	if srv.PeakUtilization()[resources.GPU] < 95 {
		t.Errorf("peak GPU %v; expected saturation", srv.PeakUtilization()[resources.GPU])
	}
}

func TestThroughputEq2(t *testing.T) {
	records := []Record{
		{Game: "A", Elapsed: 100},
		{Game: "A", Elapsed: 300},
		{Game: "B", Elapsed: 50},
	}
	// A: 2 runs, mean 200 -> 400. B: 1 run, mean 50 -> 50.
	if got := Throughput(records, nil); got != 450 {
		t.Errorf("Throughput = %v, want 450", got)
	}
	if Throughput(nil, nil) != 0 {
		t.Error("Throughput(nil) != 0")
	}
	// Reference durations override observed (lag-stretched) means.
	ref := map[string]float64{"A": 100}
	if got := Throughput(records, ref); got != 250 {
		t.Errorf("Throughput with ref = %v, want 250", got)
	}
}

func TestSummarize(t *testing.T) {
	records := []Record{
		{FPSRatio: 1, GoodFPSFrac: 1, Degraded: 0.01},
		{FPSRatio: 0.5, GoodFPSFrac: 0.5, Degraded: 0.2},
	}
	s := Summarize(records)
	if s.Sessions != 2 || s.MeanFPSRatio != 0.75 || s.ViolatedFrac != 0.5 {
		t.Errorf("summary = %+v", s)
	}
	if Summarize(nil).Sessions != 0 {
		t.Error("empty summary wrong")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestClusterPlacesAndRuns(t *testing.T) {
	pol := &admitAllPolicy{req: resources.FullServer}
	c := NewCluster(2, pol)
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 0, Habit: 5, SessionSeed: 6})
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 1, Habit: 7, SessionSeed: 8})
	c.Run(simclock.Seconds(1200))
	if c.Placements != 2 {
		t.Errorf("placements = %d", c.Placements)
	}
	if got := len(c.Records()); got != 2 {
		t.Errorf("records = %d (running %d, pending %d)", got, c.RunningSessions(), len(c.Pending))
	}
}

// rejectPolicy refuses all admissions.
type rejectPolicy struct{ admitAllPolicy }

func (r *rejectPolicy) Score(*Server, *gamesim.GameSpec) (float64, bool) { return 0, false }

func TestClusterKeepsPendingWhenRejected(t *testing.T) {
	c := NewCluster(1, &rejectPolicy{})
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 0, Habit: 1, SessionSeed: 2})
	c.Run(30)
	if len(c.Pending) != 1 {
		t.Errorf("pending = %d, want 1", len(c.Pending))
	}
	if c.Placements != 0 {
		t.Errorf("placements = %d", c.Placements)
	}
	if c.RejectedTicks == 0 {
		t.Error("no rejected attempts recorded")
	}
}

func TestServerUtilizationAccessors(t *testing.T) {
	srv, _ := newTestServer(t)
	if srv.NumHosted() != 0 || !srv.Utilization().IsZero() {
		t.Error("fresh server not empty")
	}
	addSession(t, srv, gamesim.Contra(), 1, resources.Uniform(30))
	if srv.RequestTotal().IsZero() {
		// Requests appear after the first tick.
		srv.Tick(&admitAllPolicy{})
	}
	if srv.RequestTotal().IsZero() {
		t.Error("request total still zero after a tick")
	}
}

// frameController is a ForecastNotifier that completes a "frame" on every
// third tick.
type frameController struct {
	passthroughController
	gen   *uint64
	ticks int
}

func (f *frameController) NotifyForecast(gen *uint64) { f.gen = gen }
func (f *frameController) Tick(resources.Vector) resources.Vector {
	if f.ticks++; f.ticks%3 == 0 {
		*f.gen++
	}
	return f.req
}

// TestServerAddHandsOutForecastGen: the counter is handed over inside
// Server.Add itself — callers that bypass Cluster.tryPlace get it too — and
// only notifying controllers can move it.
func TestServerAddHandsOutForecastGen(t *testing.T) {
	srv, _ := newTestServer(t)
	addSession(t, srv, gamesim.Contra(), 1, resources.Uniform(30))
	for i := 0; i < 6; i++ {
		srv.Tick(&admitAllPolicy{})
	}
	if got := srv.ForecastGen(); got != 0 {
		t.Fatalf("ForecastGen = %d with no notifying controller hosted", got)
	}
	for seed := int64(2); seed <= 3; seed++ {
		sess, err := gamesim.NewSession(gamesim.Contra(), 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		srv.Add(gamesim.Contra(), sess, &frameController{passthroughController: passthroughController{req: resources.Uniform(30)}})
	}
	for i := 1; i <= 7; i++ {
		srv.Tick(&admitAllPolicy{})
		if got, want := srv.ForecastGen(), uint64(2*(i/3)); got != want {
			t.Fatalf("after %d ticks ForecastGen = %d, want %d", i, got, want)
		}
	}
}

func TestDrainStopsPlacement(t *testing.T) {
	pol := &admitAllPolicy{req: resources.FullServer}
	c := NewCluster(1, pol)
	if !c.Drain(0) {
		t.Fatal("Drain(0) failed")
	}
	if c.Drain(99) || c.Undrain(99) {
		t.Error("unknown server drained")
	}
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 0, Habit: 1, SessionSeed: 2})
	c.Run(60)
	if c.Placements != 0 || len(c.Pending) != 1 {
		t.Errorf("placed %d on a draining server (pending %d)", c.Placements, len(c.Pending))
	}
	// Undrain and the arrival lands.
	c.Undrain(0)
	c.Run(10)
	if c.Placements != 1 {
		t.Errorf("placements after undrain = %d", c.Placements)
	}
}

// brokenControllerPolicy admits everything but cannot build controllers.
type brokenControllerPolicy struct{ admitAllPolicy }

func (b *brokenControllerPolicy) NewController(*gamesim.GameSpec, int64) (Controller, error) {
	return nil, errors.New("controller factory broken")
}

func TestFailedPlacementIsCountedAndLogged(t *testing.T) {
	var logged []string
	c := NewCluster(1, &brokenControllerPolicy{})
	c.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 0, Habit: 1, SessionSeed: 2})
	c.Run(10)
	if c.FailedPlacements != 1 {
		t.Errorf("FailedPlacements = %d, want 1", c.FailedPlacements)
	}
	if c.Placements != 0 {
		t.Errorf("Placements = %d, want 0", c.Placements)
	}
	// The malformed arrival leaves the queue: retrying it would fail
	// identically forever.
	if len(c.Pending) != 0 {
		t.Errorf("pending = %d, want 0", len(c.Pending))
	}
	if len(logged) != 1 {
		t.Fatalf("logged %d messages, want 1: %q", len(logged), logged)
	}
}

func TestFailedPlacementBadScript(t *testing.T) {
	c := NewCluster(1, &admitAllPolicy{req: resources.FullServer})
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 9999, Habit: 1, SessionSeed: 2})
	c.Run(10)
	if c.FailedPlacements != 1 || c.Placements != 0 || len(c.Pending) != 0 {
		t.Errorf("failed=%d placed=%d pending=%d, want 1/0/0 (nil Logf must not panic)",
			c.FailedPlacements, c.Placements, len(c.Pending))
	}
}

// occupancyScorer scores by server occupancy modulo 3, producing many exact
// ties so the scan's lowest-ID tie-break is load-bearing.
type occupancyScorer struct {
	admitAllPolicy
	cap int
}

func (s *occupancyScorer) Score(srv *Server, spec *gamesim.GameSpec) (float64, bool) {
	if srv.NumHosted() >= s.cap {
		return 0, false
	}
	return float64(srv.NumHosted() % 3), true
}

// tableScorer answers Score from a per-server table and fails the test when
// asked about a draining server.
type tableScorer struct {
	admitAllPolicy
	t      *testing.T
	scores []float64
	admits []bool
}

func (s *tableScorer) Score(srv *Server, _ *gamesim.GameSpec) (float64, bool) {
	if srv.Draining {
		s.t.Errorf("draining server %d was scored", srv.ID)
	}
	return s.scores[srv.ID], s.admits[srv.ID]
}

// TestPickServerLowestIDAmongTiesSkipsDraining is the placement scan's
// contract: over random fleets whose scores come from three values (so exact
// ties are the rule), PickServer returns the lowest-ID server among the
// admitting, non-draining ones with the highest score, and nil when there is
// none.
func TestPickServerLowestIDAmongTiesSkipsDraining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Arrival{Spec: gamesim.Contra()}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		pol := &tableScorer{t: t, scores: make([]float64, n), admits: make([]bool, n)}
		c := NewCluster(n, pol)
		want := -1
		for i, srv := range c.Servers {
			pol.scores[i] = float64(rng.Intn(3)) - 1 // a negative best must still win
			pol.admits[i] = rng.Intn(4) > 0
			srv.Draining = rng.Intn(4) == 0
			if pol.admits[i] && !srv.Draining && (want < 0 || pol.scores[i] > pol.scores[want]) {
				want = i
			}
		}
		got := -1
		if srv := c.PickServer(a); srv != nil {
			got = srv.ID
		}
		if got != want {
			t.Fatalf("trial %d: picked server %d, want %d (scores %v, admits %v)", trial, got, want, pol.scores, pol.admits)
		}
	}
}

func TestPickServerDoesNotPlace(t *testing.T) {
	c := NewCluster(2, &occupancyScorer{cap: 4})
	a := Arrival{Spec: gamesim.Contra(), Script: 0, Habit: 1, SessionSeed: 2}
	srv := c.PickServer(a)
	if srv == nil {
		t.Fatal("PickServer found no server on an empty cluster")
	}
	if srv.ID != 0 {
		t.Errorf("tie on empty servers picked ID %d, want lowest ID 0", srv.ID)
	}
	if c.RunningSessions() != 0 || c.Placements != 0 {
		t.Error("PickServer mutated the cluster")
	}
}

func benchClusterWithRecords(b *testing.B) *Cluster {
	b.Helper()
	c := NewCluster(64, &admitAllPolicy{})
	for _, srv := range c.Servers {
		for i := 0; i < 16; i++ {
			srv.Records = append(srv.Records, Record{Game: "G"})
		}
		for i := 0; i < 2; i++ {
			sess, err := gamesim.NewSession(gamesim.Contra(), 0, int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			srv.Add(gamesim.Contra(), sess, &passthroughController{})
		}
	}
	return c
}

func BenchmarkClusterRecords(b *testing.B) {
	c := benchClusterWithRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Records()) != 64*16 {
			b.Fatal("wrong record count")
		}
	}
}

func BenchmarkRunningSessions(b *testing.B) {
	c := benchClusterWithRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.RunningSessions() != 64*2 {
			b.Fatal("wrong session count")
		}
	}
}

func TestDrainingServerFinishesSessions(t *testing.T) {
	pol := &admitAllPolicy{req: resources.FullServer}
	c := NewCluster(1, pol)
	c.Submit(Arrival{Spec: gamesim.Contra(), Script: 0, Habit: 3, SessionSeed: 4})
	c.Run(10)
	if c.Servers[0].NumHosted() != 1 {
		t.Fatal("session not placed")
	}
	c.Drain(0)
	c.Run(20 * simclock.Minute)
	if len(c.Servers[0].Records) != 1 {
		t.Error("draining server did not finish its session")
	}
}
