package gamesim

import (
	"reflect"
	"strings"
	"testing"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

func TestAllGamesValidate(t *testing.T) {
	for _, g := range AllGames() {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestTableIStageTypeCounts(t *testing.T) {
	// The "# of stage type" column of Table I.
	want := map[string][]int{
		"DOTA2":          {3, 3},
		"CSGO":           {4, 3},
		"Devil May Cry":  {2, 4, 6},
		"Genshin Impact": {5, 5, 5},
		"Contra":         {2, 2, 2},
	}
	for _, g := range AllGames() {
		counts := want[g.Name]
		if len(g.Scripts) != len(counts) {
			t.Fatalf("%s has %d scripts, want %d", g.Name, len(g.Scripts), len(counts))
		}
		for si, wantN := range counts {
			if got := g.ScriptStageTypeCount(si); got != wantN {
				t.Errorf("%s %s stage types = %d, want %d", g.Name, g.Scripts[si].Name, got, wantN)
			}
		}
	}
}

func TestFig14ClusterCounts(t *testing.T) {
	// The chosen K values of Fig. 14 (Section V-D1).
	want := map[string]int{
		"Contra": 2, "CSGO": 4, "Genshin Impact": 4, "DOTA2": 5, "Devil May Cry": 6,
	}
	for _, g := range AllGames() {
		if got := len(g.Clusters); got != want[g.Name] {
			t.Errorf("%s clusters = %d, want %d", g.Name, got, want[g.Name])
		}
	}
}

func TestCategories(t *testing.T) {
	want := map[string]Category{
		"DOTA2": MMORPG, "CSGO": MMORPG, "Genshin Impact": Mobile,
		"Devil May Cry": Console, "Contra": Web,
	}
	for _, g := range AllGames() {
		if g.Category != want[g.Name] {
			t.Errorf("%s category = %v, want %v", g.Name, g.Category, want[g.Name])
		}
	}
}

func TestCategoryStringsAndInfluence(t *testing.T) {
	for _, c := range []Category{Web, Mobile, Console, MMORPG} {
		if strings.HasPrefix(c.String(), "category(") {
			t.Errorf("category %d has no name", c)
		}
		ui := c.UserInfluence()
		if ui < 0 || ui > 1 {
			t.Errorf("%v UserInfluence = %v out of range", c, ui)
		}
	}
	// Fig. 7 vertical ordering: user influence higher for Mobile/MMORPG.
	if !(Mobile.UserInfluence() > Web.UserInfluence()) ||
		!(MMORPG.UserInfluence() > Console.UserInfluence()) {
		t.Error("Fig. 7 user-influence ordering violated")
	}
	if got := Category(42).String(); got != "category(42)" {
		t.Errorf("unknown category string = %q", got)
	}
}

func TestFrameCaps(t *testing.T) {
	// Section V-C2: Genshin and DMC are engine-locked; CSGO/DOTA2 are not.
	capped := map[string]bool{"Genshin Impact": true, "Devil May Cry": true}
	for _, g := range AllGames() {
		if capped[g.Name] && g.FPSCap == 0 {
			t.Errorf("%s should have an FPS cap", g.Name)
		}
		if !capped[g.Name] && g.Name != "Contra" && g.FPSCap != 0 {
			t.Errorf("%s should be uncapped", g.Name)
		}
		if g.EffectiveFPS() <= 0 {
			t.Errorf("%s EffectiveFPS = %v", g.Name, g.EffectiveFPS())
		}
	}
	if got := CSGO().EffectiveFPS(); got != 200 {
		t.Errorf("CSGO EffectiveFPS = %v", got)
	}
	if got := GenshinImpact().EffectiveFPS(); got != 60 {
		t.Errorf("Genshin EffectiveFPS = %v", got)
	}
}

func TestPeak(t *testing.T) {
	g := GenshinImpact()
	p := g.Peak()
	// Sustained battle demand is 70 %; with transient bursts on top the
	// granted peak approaches Fig. 9's 78 %.
	if p[resources.GPU] != 70 {
		t.Errorf("Genshin peak GPU = %v, want 70", p[resources.GPU])
	}
	for _, c := range g.Clusters {
		if !c.Demand.Fits(p) {
			t.Errorf("cluster %s exceeds peak", c.Name)
		}
	}
}

func TestLoadingClusterShape(t *testing.T) {
	// Observation 3: loading = highest CPU of low-GPU clusters, near-zero GPU.
	for _, g := range AllGames() {
		load := g.Clusters[LoadingCluster].Demand
		if load[resources.GPU] > 10 {
			t.Errorf("%s loading GPU = %v, want near zero", g.Name, load[resources.GPU])
		}
		if load[resources.CPU] <= load[resources.GPU] {
			t.Errorf("%s loading should be CPU-dominated", g.Name)
		}
	}
}

func TestLoadingRanges(t *testing.T) {
	// Section V-C1: loading times are 5-30 s.
	for _, g := range AllGames() {
		if g.LoadMin < 5*simclock.Second || g.LoadMax > 30*simclock.Second {
			t.Errorf("%s load range [%d, %d] outside the paper's 5-30 s", g.Name, g.LoadMin, g.LoadMax)
		}
	}
}

func TestGameByName(t *testing.T) {
	g, err := GameByName("CSGO")
	if err != nil || g.Name != "CSGO" {
		t.Errorf("GameByName(CSGO) = %v, %v", g, err)
	}
	if _, err := GameByName("Tetris"); err == nil {
		t.Error("unknown game did not error")
	}
}

// TestGameByNameBuildsOneSpec pins that GameByName builds only the game it
// is asked for: a fresh spec equal to AllGames' entry, for exactly its
// constructor's allocations (61 for every name while it built all five
// specs and kept one: DOTA2 11, CSGO 12, Genshin Impact 12, Devil May Cry
// 16, Contra 9 since). An unknown name keeps its error text.
func TestGameByNameBuildsOneSpec(t *testing.T) {
	all := AllGames()
	if len(all) != len(catalog) {
		t.Fatalf("AllGames returns %d specs, the catalog lists %d", len(all), len(catalog))
	}
	for i, want := range all {
		name := want.Name
		if catalog[i].name != name {
			t.Fatalf("catalog entry %d is named %q, its spec %q", i, catalog[i].name, name)
		}
		got, err := GameByName(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("GameByName(%q) = %v, %v; want AllGames' spec", name, got, err)
		}
		if again, _ := GameByName(name); again == got {
			t.Errorf("GameByName(%q) returned the same spec twice; each call must build a fresh one", name)
		}
		byName := testing.AllocsPerRun(50, func() { _, _ = GameByName(name) })
		built := testing.AllocsPerRun(50, func() { _ = catalog[i].spec() })
		if byName != built {
			t.Errorf("GameByName(%q) allocates %.0f objects, its constructor alone %.0f", name, byName, built)
		}
	}
	const wantErr = `gamesim: unknown game "Tetris" (known: DOTA2, CSGO, Genshin Impact, Devil May Cry, Contra)`
	if _, err := GameByName("Tetris"); err == nil || err.Error() != wantErr {
		t.Errorf("GameByName(Tetris) error %v, want %s", err, wantErr)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*GameSpec)
	}{
		{"unnamed", func(g *GameSpec) { g.Name = "" }},
		{"no clusters", func(g *GameSpec) { g.Clusters = g.Clusters[:1] }},
		{"no stage types", func(g *GameSpec) { g.StageTypes = g.StageTypes[:1] }},
		{"loading renders", func(g *GameSpec) { g.Clusters[0].Demand[resources.GPU] = 50 }},
		{"bad cluster ref", func(g *GameSpec) { g.StageTypes[1].Clusters = []int{99} }},
		{"no scripts", func(g *GameSpec) { g.Scripts = nil }},
		{"empty script", func(g *GameSpec) { g.Scripts[0].Body = nil }},
		{"script refs loading", func(g *GameSpec) { g.Scripts[0].Body = []int{0} }},
		{"load too short", func(g *GameSpec) { g.LoadMin = 1 }},
		{"load range inverted", func(g *GameSpec) { g.LoadMax = g.LoadMin - 1 }},
		{"zero fps", func(g *GameSpec) { g.BaseFPS = 0 }},
		{"zero nominal", func(g *GameSpec) { g.NominalLen = 0 }},
		{"zero stage dur", func(g *GameSpec) { g.StageTypes[1].MeanDur = 0 }},
		{"stage no clusters", func(g *GameSpec) { g.StageTypes[1].Clusters = nil }},
	}
	for _, m := range mutations {
		g := DOTA2()
		m.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %q passed validation", m.name)
		}
	}
}
