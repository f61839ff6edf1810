package gamesim

import (
	"testing"
	"testing/quick"

	"cocg/internal/resources"
)

// runToCompletion steps a session at full supply and returns tick count.
func runToCompletion(t *testing.T, s *Session) int {
	t.Helper()
	for i := 0; i < 4*3600; i++ {
		if s.Done() {
			return i
		}
		s.Step(resources.FullServer.Load())
	}
	t.Fatal("session did not complete within 4 simulated hours")
	return 0
}

func TestSessionLifecycle(t *testing.T) {
	s, err := NewSession(Contra(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase() != PhaseLoading {
		t.Fatalf("new session phase = %v", s.Phase())
	}
	runToCompletion(t, s)
	if !s.Done() || s.Phase() != PhaseDone {
		t.Error("session not done after completion")
	}
	if s.ExecSeconds() == 0 || s.LoadSeconds() == 0 {
		t.Errorf("exec=%d load=%d, both must be positive", s.ExecSeconds(), s.LoadSeconds())
	}
	if s.Elapsed() != s.ExecSeconds()+s.LoadSeconds() {
		t.Errorf("elapsed %d != exec %d + load %d", s.Elapsed(), s.ExecSeconds(), s.LoadSeconds())
	}
}

func TestSessionInvalidArgs(t *testing.T) {
	if _, err := NewSession(Contra(), 5, 1); err == nil {
		t.Error("out-of-range script did not error")
	}
	bad := Contra()
	bad.Scripts = nil
	if _, err := NewSession(bad, 0, 1); err == nil {
		t.Error("invalid spec did not error")
	}
}

func TestSessionDeterministicForSeed(t *testing.T) {
	a, _ := NewSession(GenshinImpact(), 0, 42)
	b, _ := NewSession(GenshinImpact(), 0, 42)
	for i := 0; i < 2000 && !a.Done(); i++ {
		da, db := a.Demand(), b.Demand()
		if da != db {
			t.Fatalf("tick %d: demands differ: %v vs %v", i, da, db)
		}
		a.Step(resources.FullServer.Load())
		b.Step(resources.FullServer.Load())
	}
}

func TestDemandStableWithinTick(t *testing.T) {
	s, _ := NewSession(CSGO(), 0, 3)
	for i := 0; i < 100; i++ {
		d1 := s.Demand()
		d2 := s.Demand()
		if d1 != d2 {
			t.Fatalf("tick %d: Demand not stable: %v vs %v", i, d1, d2)
		}
		s.Step(resources.FullServer.Load())
	}
}

func TestFullSupplyMeansFullFPS(t *testing.T) {
	s, _ := NewSession(DevilMayCry(), 0, 7)
	runToCompletion(t, s)
	if r := s.FPSRatio(); r < 0.999 {
		t.Errorf("FPSRatio at full supply = %v, want ~1", r)
	}
	if f := s.GoodFPSFraction(); f < 0.999 {
		t.Errorf("GoodFPSFraction at full supply = %v", f)
	}
	if d := s.DegradedFraction(); d > 0.001 {
		t.Errorf("DegradedFraction at full supply = %v", d)
	}
	if s.LoadExtended() > 0.001 {
		t.Errorf("LoadExtended at full supply = %v", s.LoadExtended())
	}
}

func TestThrottlingDropsFPS(t *testing.T) {
	full, _ := NewSession(CSGO(), 0, 9)
	runToCompletion(t, full)
	half, _ := NewSession(CSGO(), 0, 9)
	for i := 0; i < 4*3600 && !half.Done(); i++ {
		half.Step(half.Demand().Scale(0.5))
	}
	if !half.Done() {
		t.Fatal("throttled session did not finish")
	}
	if half.AvgFPS() >= full.AvgFPS()*0.6 {
		t.Errorf("half supply FPS %v not clearly below full %v", half.AvgFPS(), full.AvgFPS())
	}
	if half.DegradedFraction() < 0.9 {
		t.Errorf("half supply DegradedFraction = %v, want ~1", half.DegradedFraction())
	}
}

func TestThrottledLoadingExtends(t *testing.T) {
	// Observation 4: reducing loading supply stretches loading time without
	// touching execution time.
	full, _ := NewSession(DevilMayCry(), 0, 11)
	runToCompletion(t, full)

	steal, _ := NewSession(DevilMayCry(), 0, 11)
	for i := 0; i < 4*3600 && !steal.Done(); i++ {
		grant := steal.Demand()
		if steal.Phase() == PhaseLoading {
			grant = grant.Scale(0.5)
		}
		steal.Step(grant)
	}
	if !steal.Done() {
		t.Fatal("stolen session did not finish")
	}
	if steal.LoadSeconds() <= full.LoadSeconds() {
		t.Errorf("throttled loading %d not longer than full-supply loading %d",
			steal.LoadSeconds(), full.LoadSeconds())
	}
	if steal.LoadExtended() <= 0 {
		t.Error("LoadExtended not recorded")
	}
	// Execution QoS must be untouched: stealing only affects loading.
	if steal.FPSRatio() < 0.999 {
		t.Errorf("loading throttle hurt exec FPS: ratio %v", steal.FPSRatio())
	}
}

func TestLoadingDemandShape(t *testing.T) {
	s, _ := NewSession(DOTA2(), 0, 13)
	// The session starts in loading; its demand must be CPU-heavy, GPU-light.
	d := s.Demand().Vector()
	if d[resources.GPU] > 15 {
		t.Errorf("loading GPU demand = %v", d[resources.GPU])
	}
	if d[resources.CPU] < 30 {
		t.Errorf("loading CPU demand = %v", d[resources.CPU])
	}
}

func TestPlanTypesMatchScriptTypes(t *testing.T) {
	for _, g := range AllGames() {
		for si := range g.Scripts {
			s, err := NewSession(g, si, 17)
			if err != nil {
				t.Fatal(err)
			}
			allowed := map[int]bool{}
			for _, tt := range g.Scripts[si].Body {
				allowed[tt] = true
			}
			for _, tt := range s.PlanTypes() {
				if !allowed[tt] {
					t.Errorf("%s script %d plan contains foreign stage type %d", g.Name, si, tt)
				}
			}
		}
	}
}

func TestWebGamesPlanIsExactlyScript(t *testing.T) {
	// Web games have negligible user influence: the realized plan must keep
	// the script's nominal order and length.
	g := Contra()
	for seed := int64(0); seed < 20; seed++ {
		s, _ := NewSession(g, 2, seed)
		got := s.PlanTypes()
		if len(got) != 3 {
			t.Fatalf("seed %d: plan length %d, want 3", seed, len(got))
		}
	}
}

func TestMobilePlansVaryAcrossPlayers(t *testing.T) {
	g := GenshinImpact()
	distinct := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		s, _ := NewSession(g, 0, seed)
		key := ""
		for _, tt := range s.PlanTypes() {
			key += string(rune('0' + tt))
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Error("mobile plans identical across players; user influence missing")
	}
}

func TestStageTypeGroundTruth(t *testing.T) {
	s, _ := NewSession(Contra(), 0, 19)
	sawLoading, sawExec := false, false
	for i := 0; i < 4*3600 && !s.Done(); i++ {
		switch s.Phase() {
		case PhaseLoading:
			sawLoading = true
			if s.StageType() != LoadingType {
				t.Fatal("loading phase reports non-loading stage type")
			}
		case PhaseExec:
			sawExec = true
			if s.StageType() == LoadingType {
				t.Fatal("exec phase reports loading stage type")
			}
		}
		s.Step(resources.FullServer.Load())
	}
	if !sawLoading || !sawExec {
		t.Error("session skipped a phase")
	}
}

func TestDoneSessionIsInert(t *testing.T) {
	s, _ := NewSession(Contra(), 0, 23)
	runToCompletion(t, s)
	e := s.Elapsed()
	s.Step(resources.FullServer.Load())
	if s.Elapsed() != e {
		t.Error("Step advanced a done session")
	}
	if !s.Demand().IsZero() {
		t.Error("done session still demands resources")
	}
}

func TestPropertyDemandInRange(t *testing.T) {
	f := func(seed int64, scriptRaw uint8) bool {
		g := AllGames()[int(uint64(seed)%5)]
		si := int(scriptRaw) % len(g.Scripts)
		s, err := NewSession(g, si, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 500 && !s.Done(); i++ {
			d := s.Demand().Vector()
			for dim := range d {
				if d[dim] < 0 || d[dim] > 100 {
					return false
				}
			}
			s.Step(resources.FullServer.Load())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertySessionsAlwaysTerminate(t *testing.T) {
	f := func(seed int64, scriptRaw uint8) bool {
		g := AllGames()[int((uint64(seed)>>3)%5)]
		si := int(scriptRaw) % len(g.Scripts)
		s, err := NewSession(g, si, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 4*3600; i++ {
			if s.Done() {
				return true
			}
			s.Step(resources.FullServer.Load())
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseLoading.String() != "loading" || PhaseExec.String() != "exec" || PhaseDone.String() != "done" {
		t.Error("phase names wrong")
	}
	if Phase(9).String() != "phase(9)" {
		t.Error("unknown phase string wrong")
	}
}

func TestFPSPercentiles(t *testing.T) {
	s, _ := NewSession(CSGO(), 0, 77)
	// Run the first two minutes at full supply, the rest throttled to 50 %.
	i := 0
	for ; i < 120 && !s.Done(); i++ {
		s.Step(resources.FullServer.Load())
	}
	for ; i < 4*3600 && !s.Done(); i++ {
		s.Step(s.Demand().Scale(0.5))
	}
	if s.ExecSeconds() == 0 {
		t.Fatal("no exec time")
	}
	p5 := s.FPSPercentile(5)
	p95 := s.FPSPercentile(95)
	if p5 > p95 {
		t.Errorf("p5 %.0f above p95 %.0f", p5, p95)
	}
	if p95 < 100 {
		t.Errorf("p95 %.0f too low for an uncapped 200 FPS game at full supply", p95)
	}
	if p5 > 150 {
		t.Errorf("p5 %.0f does not reflect the throttled half", p5)
	}
	// Percentiles of a fresh session are zero.
	fresh, _ := NewSession(CSGO(), 0, 78)
	if fresh.FPSPercentile(50) != 0 {
		t.Error("fresh session percentile not zero")
	}
}

func TestHabitStableAcrossSessions(t *testing.T) {
	// The same mobile player keeps (mostly) the same task order across
	// sessions; different players differ. This is the structure per-player
	// training sets exploit.
	g := GenshinImpact()
	planKey := func(habit, session int64) string {
		s, err := NewPlayerSession(g, 0, habit, session)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, tt := range s.PlanTypes() {
			key += string(rune('0' + tt))
		}
		return key
	}
	same, diff := 0, 0
	for habit := int64(100); habit < 110; habit++ {
		base := planKey(habit, 1)
		for sess := int64(2); sess < 8; sess++ {
			if planKey(habit, sess) == base {
				same++
			} else {
				diff++
			}
		}
	}
	if frac := float64(same) / float64(same+diff); frac < 0.6 {
		t.Errorf("habit plans stable only %.0f%% of sessions", 100*frac)
	}
	distinct := map[string]bool{}
	for habit := int64(100); habit < 110; habit++ {
		distinct[planKey(habit, 1)] = true
	}
	if len(distinct) < 2 {
		t.Error("all players share one habit")
	}
}

func TestPropertyPlanAlternatesLoadingAndExec(t *testing.T) {
	// Running any session to completion at full supply must alternate
	// loading and execution phases strictly (no exec-to-exec jumps without
	// a loading stage between plan entries).
	f := func(seed int64) bool {
		g := AllGames()[int(uint64(seed)%5)]
		s, err := NewSession(g, int(uint64(seed)>>8)%len(g.Scripts), seed)
		if err != nil {
			return false
		}
		prev := s.Phase()
		transitions := 0
		for i := 0; i < 4*3600 && !s.Done(); i++ {
			s.Step(resources.FullServer.Load())
			cur := s.Phase()
			if cur != prev && cur != PhaseDone {
				transitions++
				// A phase change must flip loading <-> exec.
				if (prev == PhaseLoading) == (cur == PhaseLoading) {
					return false
				}
			}
			prev = cur
		}
		return transitions >= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// BenchmarkNewPlayerSession is the per-admission cost of realising a session:
// a Console game builds one generator, a Mobile game a second one for the
// player's habits. Both are lazyrand sources (docs/PERFORMANCE.md, "Seeding").
func BenchmarkNewPlayerSession(b *testing.B) {
	for _, g := range []*GameSpec{DevilMayCry(), GenshinImpact()} {
		b.Run(g.Category.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPlayerSession(g, i%len(g.Scripts), int64(i%97), int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
