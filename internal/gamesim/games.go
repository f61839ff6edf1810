package gamesim

import (
	"fmt"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// The five evaluated workloads (Section V-A, Table I). Cluster counts follow
// the elbow choices of Fig. 14 (Contra 2, CSGO 4, Genshin Impact 4, DOTA2 5,
// Devil May Cry 6); per-script stage-type counts follow Table I; frame caps
// follow Section V-C2 (Genshin Impact and Devil May Cry are engine-locked,
// CSGO and DOTA2 are uncapped).

// DOTA2 is a 3D MOBA: complex stages and significant user influence
// (MMORPG & MOBA quadrant of Fig. 7).
func DOTA2() *GameSpec {
	return &GameSpec{
		Name:     "DOTA2",
		Category: MMORPG,
		// Utilization calibrated to Fig. 9: DOTA2's peak grant is ~43 %.
		Clusters: []ClusterSpec{
			{Name: "loading", Demand: resources.New(50, 3, 10, 30), Jitter: 2.5},
			{Name: "laning", Demand: resources.New(30, 16, 22, 38), Jitter: 2.5},
			{Name: "teamfight", Demand: resources.New(52, 43, 34, 46), Jitter: 3.5},
			{Name: "push", Demand: resources.New(42, 32, 28, 42), Jitter: 3},
			{Name: "arcade", Demand: resources.New(36, 26, 26, 40), Jitter: 2.5},
		},
		StageTypes: []StageType{
			{Name: "loading", Clusters: []int{LoadingCluster}},
			{Name: "laning", Clusters: []int{1}, MeanDur: 300 * simclock.Second, DurJitter: 0.25},
			// Teamfights mix open fights and high-ground pushes: the paper's
			// "multiple clusters, one scene" stage.
			{Name: "teamfight", Clusters: []int{2, 3}, MeanDur: 180 * simclock.Second, DurJitter: 0.3},
			{Name: "arcade-build", Clusters: []int{4}, MeanDur: 120 * simclock.Second, DurJitter: 0.2},
			{Name: "arcade-wave", Clusters: []int{4}, MeanDur: 200 * simclock.Second, DurJitter: 0.3},
		},
		Scripts: []Script{
			{Name: "script 1", Desc: "conducting a match with 9 bots", Body: []int{1, 2}},
			{Name: "script 2", Desc: "playing a tower defense game in the arcade", Body: []int{3, 4}},
		},
		BaseFPS:    180,
		LoadMin:    10 * simclock.Second,
		LoadMax:    22 * simclock.Second,
		NominalLen: 40 * simclock.Minute,
		SpikeRate:  0.002,
	}
}

// CSGO is a 3D FPS: complex stages and significant user influence.
func CSGO() *GameSpec {
	return &GameSpec{
		Name:     "CSGO",
		Category: MMORPG,
		Clusters: []ClusterSpec{
			{Name: "loading", Demand: resources.New(48, 4, 12, 28), Jitter: 2.5},
			{Name: "buy-walk", Demand: resources.New(22, 24, 20, 30), Jitter: 2.5},
			{Name: "firefight", Demand: resources.New(45, 52, 34, 38), Jitter: 3.5},
			{Name: "clutch", Demand: resources.New(56, 66, 42, 42), Jitter: 4},
		},
		StageTypes: []StageType{
			{Name: "loading", Clusters: []int{LoadingCluster}},
			{Name: "buy-phase", Clusters: []int{1}, MeanDur: 45 * simclock.Second, DurJitter: 0.15},
			{Name: "firefight", Clusters: []int{2}, MeanDur: 120 * simclock.Second, DurJitter: 0.3},
			// Late rounds mix fights and smoked clutches.
			{Name: "clutch", Clusters: []int{2, 3}, MeanDur: 90 * simclock.Second, DurJitter: 0.35},
			{Name: "training-move", Clusters: []int{1}, MeanDur: 150 * simclock.Second, DurJitter: 0.2},
			{Name: "training-range", Clusters: []int{2}, MeanDur: 120 * simclock.Second, DurJitter: 0.2},
		},
		Scripts: []Script{
			{Name: "script 1", Desc: "conducting a match with 9 bots", Body: []int{1, 2, 3}},
			{Name: "script 2", Desc: "moving in the training map without shooting", Body: []int{4, 5}},
		},
		BaseFPS:    200,
		LoadMin:    10 * simclock.Second,
		LoadMax:    16 * simclock.Second,
		NominalLen: 35 * simclock.Minute,
		SpikeRate:  0.002,
	}
}

// GenshinImpact is the paper's mobile-game representative: simple stages but
// the strongest user influence (players reorder their daily tasks).
func GenshinImpact() *GameSpec {
	return &GameSpec{
		Name:     "Genshin Impact",
		Category: Mobile,
		// The battle scene is the game's peak; with transient bursts on top,
		// granted utilization tops out near Fig. 9's 78 %.
		Clusters: []ClusterSpec{
			{Name: "loading", Demand: resources.New(50, 5, 14, 36), Jitter: 2.5},
			{Name: "explore", Demand: resources.New(34, 36, 30, 44), Jitter: 3},
			{Name: "battle", Demand: resources.New(52, 70, 46, 50), Jitter: 4},
			{Name: "fly", Demand: resources.New(24, 26, 26, 40), Jitter: 2.5},
		},
		StageTypes: []StageType{
			{Name: "loading", Clusters: []int{LoadingCluster}},
			// The daily-menu stage reuses the explore cluster: the paper's
			// "one cluster, multiple scenes" stage.
			{Name: "daily-menu", Clusters: []int{1}, MeanDur: 80 * simclock.Second, DurJitter: 0.3},
			{Name: "run", Clusters: []int{1}, MeanDur: 200 * simclock.Second, DurJitter: 0.35},
			{Name: "battle", Clusters: []int{2}, MeanDur: 150 * simclock.Second, DurJitter: 0.4},
			{Name: "fly", Clusters: []int{3}, MeanDur: 120 * simclock.Second, DurJitter: 0.35},
		},
		Scripts: []Script{
			{Name: "script 1", Desc: "run + battle + fly", Body: []int{1, 2, 3, 4}},
			{Name: "script 2", Desc: "fly + battle + run", Body: []int{1, 4, 3, 2}},
			{Name: "script 3", Desc: "battle + run + fly", Body: []int{1, 3, 2, 4}},
		},
		BaseFPS:    60,
		FPSCap:     60,
		LoadMin:    12 * simclock.Second,
		LoadMax:    25 * simclock.Second,
		NominalLen: 12 * simclock.Minute,
		SpikeRate:  0.004,
	}
}

// DevilMayCry is the console representative: many level stages, little user
// influence on their order.
func DevilMayCry() *GameSpec {
	return &GameSpec{
		Name:     "Devil May Cry",
		Category: Console,
		Clusters: []ClusterSpec{
			{Name: "loading", Demand: resources.New(54, 4, 16, 34), Jitter: 2.5},
			{Name: "corridor", Demand: resources.New(30, 40, 36, 42), Jitter: 3},
			{Name: "brawl", Demand: resources.New(44, 56, 44, 46), Jitter: 3.5},
			{Name: "boss", Demand: resources.New(58, 76, 54, 50), Jitter: 4},
			{Name: "cutscene", Demand: resources.New(18, 22, 34, 40), Jitter: 2},
			{Name: "puzzle", Demand: resources.New(26, 32, 32, 40), Jitter: 2.5},
		},
		StageTypes: []StageType{
			{Name: "loading", Clusters: []int{LoadingCluster}},
			// Level one alternates corridors and brawls within one stage.
			{Name: "level1", Clusters: []int{1, 2}, MeanDur: 300 * simclock.Second, DurJitter: 0.2},
			{Name: "l2-cutscene", Clusters: []int{4}, MeanDur: 90 * simclock.Second, DurJitter: 0.1},
			{Name: "l2-puzzle", Clusters: []int{5}, MeanDur: 180 * simclock.Second, DurJitter: 0.25},
			{Name: "l2-brawl", Clusters: []int{2}, MeanDur: 220 * simclock.Second, DurJitter: 0.2},
			{Name: "l3-corridor", Clusters: []int{1}, MeanDur: 160 * simclock.Second, DurJitter: 0.2},
			// The "big secret realm": three elite fights in player order.
			{Name: "l3-elites", Clusters: []int{2, 3}, MeanDur: 240 * simclock.Second, DurJitter: 0.25},
			{Name: "l3-boss", Clusters: []int{3}, MeanDur: 200 * simclock.Second, DurJitter: 0.2},
			{Name: "l3-escape", Clusters: []int{1, 5}, MeanDur: 120 * simclock.Second, DurJitter: 0.2},
		},
		Scripts: []Script{
			{Name: "script 1", Desc: "first level in simple mode", Body: []int{1}},
			{Name: "script 2", Desc: "second level in simple mode", Body: []int{2, 3, 4}},
			{Name: "script 3", Desc: "third level in simple mode", Body: []int{5, 2, 6, 7, 8}},
		},
		BaseFPS:    60,
		FPSCap:     60,
		LoadMin:    15 * simclock.Second,
		LoadMax:    30 * simclock.Second,
		NominalLen: 30 * simclock.Minute,
		SpikeRate:  0.002,
	}
}

// Contra is the web-game representative: trivial stage structure, negligible
// user influence, low resource consumption.
func Contra() *GameSpec {
	return &GameSpec{
		Name:     "Contra",
		Category: Web,
		Clusters: []ClusterSpec{
			{Name: "loading", Demand: resources.New(28, 2, 4, 10), Jitter: 1.5},
			{Name: "run-and-gun", Demand: resources.New(16, 12, 8, 12), Jitter: 1.5},
		},
		StageTypes: []StageType{
			{Name: "loading", Clusters: []int{LoadingCluster}},
			{Name: "level", Clusters: []int{1}, MeanDur: 140 * simclock.Second, DurJitter: 0.1},
		},
		Scripts: []Script{
			{Name: "script 1", Desc: "first level", Body: []int{1}},
			{Name: "script 2", Desc: "first two levels", Body: []int{1, 1}},
			{Name: "script 3", Desc: "first three levels", Body: []int{1, 1, 1}},
		},
		BaseFPS:    60,
		LoadMin:    10 * simclock.Second,
		LoadMax:    12 * simclock.Second,
		NominalLen: 8 * simclock.Minute,
		SpikeRate:  0,
	}
}

// catalog lists the suite's constructors by game name, in the paper's
// listing order, so GameByName can build just the one it is asked for.
var catalog = [...]struct {
	name string
	spec func() *GameSpec
}{
	{"DOTA2", DOTA2},
	{"CSGO", CSGO},
	{"Genshin Impact", GenshinImpact},
	{"Devil May Cry", DevilMayCry},
	{"Contra", Contra},
}

// AllGames returns fresh specs for the full evaluated suite, in the paper's
// listing order.
func AllGames() []*GameSpec {
	games := make([]*GameSpec, len(catalog))
	for i, g := range catalog {
		games[i] = g.spec()
	}
	return games
}

// GameByName returns a fresh spec of the game with the given name, or an
// error listing the known games.
func GameByName(name string) (*GameSpec, error) {
	for _, g := range catalog {
		if g.name == name {
			return g.spec(), nil
		}
	}
	return nil, fmt.Errorf("gamesim: unknown game %q (known: DOTA2, CSGO, Genshin Impact, Devil May Cry, Contra)", name)
}
