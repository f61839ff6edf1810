package baselines

import (
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/profiler"
	"cocg/internal/resources"
)

var profileCache = map[string]*profiler.Profile{}

func profileFor(t *testing.T, spec *gamesim.GameSpec) *profiler.Profile {
	t.Helper()
	if p, ok := profileCache[spec.Name]; ok {
		return p
	}
	traces, err := gamesim.RecordCorpus(spec, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Build(traces, profiler.Config{K: len(spec.Clusters), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	profileCache[spec.Name] = p
	return p
}

func allProfiles(t *testing.T) []*profiler.Profile {
	t.Helper()
	var out []*profiler.Profile
	for _, g := range gamesim.AllGames() {
		out = append(out, profileFor(t, g))
	}
	return out
}

// admits reports whether the policy would place the game on the server.
func admits(p platform.Policy, srv *platform.Server, spec *gamesim.GameSpec, habit int64) bool {
	_, ok := p.Score(srv, spec, habit)
	return ok
}

func TestPolicyNames(t *testing.T) {
	ps := allProfiles(t)
	if NewVBP(ps).Name() != "VBP" || NewGAugur(ps).Name() != "GAugur" || NewReactive(ps).Name() != "Reactive" {
		t.Error("policy names wrong")
	}
}

func TestVBPAdmission(t *testing.T) {
	ps := allProfiles(t)
	v := NewVBP(ps)
	c := platform.NewCluster(1, v)
	srv := c.Servers[0]
	// Contra is tiny: many fit.
	contra := gamesim.Contra()
	n := 0
	for i := int64(0); i < 20 && admits(v, srv, contra, i); i++ {
		sess, _ := gamesim.NewSession(contra, 0, i)
		ctl, err := v.NewController(contra, i)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Add(contra, sess, ctl)
		h.Request = ctl.Tick(resources.Zero)
		n++
	}
	if n < 3 {
		t.Errorf("VBP packed only %d Contra instances", n)
	}
	// Devil May Cry reserves ~90 % of its peak: two cannot share.
	dmc := gamesim.DevilMayCry()
	c2 := platform.NewCluster(1, v)
	srv2 := c2.Servers[0]
	if !admits(v, srv2, dmc, 1) {
		t.Fatal("VBP rejected DMC on an empty server")
	}
	sess, _ := gamesim.NewSession(dmc, 0, 1)
	ctl, _ := v.NewController(dmc, 1)
	h := srv2.Add(dmc, sess, ctl)
	h.Request = ctl.Tick(resources.Zero)
	if admits(v, srv2, dmc, 2) {
		t.Error("VBP admitted two DMC instances on one server")
	}
}

func TestVBPControllerFlat(t *testing.T) {
	v := NewVBP(allProfiles(t))
	ctl, err := v.NewController(gamesim.CSGO(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r1 := ctl.Tick(resources.Uniform(10))
	r2 := ctl.Tick(resources.Uniform(90))
	if r1 != r2 {
		t.Error("VBP request not flat")
	}
	if ctl.Loading() {
		t.Error("VBP claims loading awareness")
	}
	// VBP's 90 %-of-peak vector constrains admission only; at runtime the
	// game may use up to (a padded) full peak.
	peak := profileFor(t, gamesim.CSGO()).PeakDemand()
	if !peak.Fits(r1.Add(resources.Uniform(1e-9))) {
		t.Errorf("VBP runtime request %v does not cover peak %v", r1, peak)
	}
	// And it is not a hard partition.
	if hc, ok := interface{}(ctl).(platform.HardCapper); ok && hc.HardCapped() {
		t.Error("VBP controller should not be hard-capped")
	}
}

func TestUnknownGameErrors(t *testing.T) {
	empty := []*profiler.Profile{}
	if _, err := NewVBP(empty).NewController(gamesim.CSGO(), 1); err == nil {
		t.Error("VBP controller for unknown game")
	}
	if _, err := NewGAugur(empty).NewController(gamesim.CSGO(), 1); err == nil {
		t.Error("GAugur controller for unknown game")
	}
	if _, err := NewReactive(empty).NewController(gamesim.CSGO(), 1); err == nil {
		t.Error("Reactive controller for unknown game")
	}
	c := platform.NewCluster(1, NewVBP(empty))
	if admits(NewVBP(empty), c.Servers[0], gamesim.CSGO(), 1) {
		t.Error("VBP admitted unknown game")
	}
}

func TestGAugurPairBound(t *testing.T) {
	ps := allProfiles(t)
	g := NewGAugur(ps)
	c := platform.NewCluster(1, g)
	srv := c.Servers[0]
	contra := gamesim.Contra()
	for i := int64(0); i < 2; i++ {
		if !admits(g, srv, contra, i) {
			t.Fatalf("GAugur rejected Contra #%d", i+1)
		}
		sess, _ := gamesim.NewSession(contra, 0, i)
		ctl, _ := g.NewController(contra, i)
		h := srv.Add(contra, sess, ctl)
		h.Request = ctl.Tick(resources.Zero)
	}
	// Third game refused regardless of size: pairwise model.
	if admits(g, srv, contra, 9) {
		t.Error("GAugur admitted a third game")
	}
}

func TestGAugurLimitBelowPeak(t *testing.T) {
	// GAugur's fixed limit is mean-based: for a stage-heavy game it sits
	// well below the peak — the cause of its Fig. 13 FPS loss.
	g := NewGAugur(allProfiles(t))
	ctl, err := g.NewController(gamesim.DevilMayCry(), 1)
	if err != nil {
		t.Fatal(err)
	}
	limit := ctl.Tick(resources.Zero)
	peak := profileFor(t, gamesim.DevilMayCry()).PeakDemand()
	if limit[resources.GPU] >= peak[resources.GPU] {
		t.Errorf("GAugur limit %v not below peak %v", limit, peak)
	}
}

func TestReactiveFollowsConsumption(t *testing.T) {
	r := NewReactive(allProfiles(t))
	ctl, err := r.NewController(gamesim.CSGO(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Before the first frame completes, the request is the safe peak.
	first := ctl.Tick(resources.Uniform(20))
	if first != profileFor(t, gamesim.CSGO()).PeakDemand() {
		t.Errorf("initial reactive request = %v", first)
	}
	// Feed a steady low load; after one frame the request tracks it.
	var req resources.Vector
	for i := 0; i < 5; i++ {
		req = ctl.Tick(resources.New(30, 30, 20, 20))
	}
	if req[resources.GPU] > 30*1.2+3+1e-9 {
		t.Errorf("reactive request %v did not follow measured load", req)
	}
	if req[resources.GPU] < 30 {
		t.Errorf("reactive request %v below measured load", req)
	}
}

func TestReactiveDetectsLoading(t *testing.T) {
	spec := gamesim.DevilMayCry()
	r := NewReactive(allProfiles(t))
	ctl, err := r.NewController(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := profileFor(t, spec)
	loadDemand := p.Clusters.Centroids[p.LoadingClusterID]
	for i := 0; i < 6; i++ {
		ctl.Tick(loadDemand)
	}
	if !ctl.Loading() {
		t.Error("reactive controller did not detect loading")
	}
	var exec resources.Vector
	for i, cent := range p.Clusters.Centroids {
		if i != p.LoadingClusterID && cent[resources.GPU] > 40 {
			exec = cent
			break
		}
	}
	for i := 0; i < 6; i++ {
		ctl.Tick(exec)
	}
	if ctl.Loading() {
		t.Error("reactive controller stuck in loading")
	}
}

func TestReactiveRunsSessionWithLag(t *testing.T) {
	// The reactive scheme completes a solo session fine (idle server:
	// work-conserving redistribution hides the one-frame lag).
	spec := gamesim.GenshinImpact()
	r := NewReactive(allProfiles(t))
	c := platform.NewCluster(1, r)
	c.Submit(platform.Arrival{Spec: spec, Script: 0, Habit: 3, SessionSeed: 4})
	c.Run(3600)
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].FPSRatio < 0.95 {
		t.Errorf("solo reactive FPS ratio %.3f", recs[0].FPSRatio)
	}
}
