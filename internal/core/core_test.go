package core

import (
	"reflect"
	"strings"
	"testing"

	"cocg/internal/baselines"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/scheduler"
)

func smallSystem(t *testing.T) *System {
	t.Helper()
	s, err := Train([]*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact()},
		TrainOptions{Players: 4, SessionsPerPlayer: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrainEmpty(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Error("empty game list did not error")
	}
}

// TestTrainRejectsDuplicateGame: a game listed twice would train twice and
// keep one bundle. Train must name it before any game trains — here the
// first game listed cannot train, so its error would win if one did.
func TestTrainRejectsDuplicateGame(t *testing.T) {
	broken := *gamesim.Contra()
	broken.Name = "Broken"
	broken.Clusters = broken.Clusters[:1]
	specs := []*gamesim.GameSpec{&broken, gamesim.Contra(), gamesim.GenshinImpact(), gamesim.Contra()}
	_, err := Train(specs, TrainOptions{Players: 1, SessionsPerPlayer: 1, Seed: 3, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "Contra") || strings.Contains(err.Error(), "Broken") {
		t.Fatalf("Train with Contra twice: err = %v, want one naming the duplicate", err)
	}
}

func TestSystemAccessors(t *testing.T) {
	s := smallSystem(t)
	games := s.Games()
	if len(games) != 2 || games[0] != "Contra" || games[1] != "Genshin Impact" {
		t.Errorf("Games = %v", games)
	}
	if _, ok := s.Bundle("Contra"); !ok {
		t.Error("Bundle(Contra) missing")
	}
	if _, ok := s.Bundle("nope"); ok {
		t.Error("Bundle(nope) present")
	}
	if len(s.Profiles()) != 2 {
		t.Error("Profiles wrong length")
	}
}

func TestPolicyKinds(t *testing.T) {
	s := smallSystem(t)
	want := map[PolicyKind]struct {
		name   string
		policy platform.Policy
	}{
		PolicyCoCG:     {"CoCG", (*scheduler.CoCG)(nil)},
		PolicyVBP:      {"VBP", (*baselines.VBP)(nil)},
		PolicyGAugur:   {"GAugur", (*baselines.GAugur)(nil)},
		PolicyReactive: {"Reactive", (*baselines.Reactive)(nil)},
	}
	for kind, w := range want {
		if kind.String() != w.name {
			t.Errorf("kind string = %q, want %q", kind.String(), w.name)
		}
		if got, wantT := reflect.TypeOf(s.Policy(kind)), reflect.TypeOf(w.policy); got != wantT {
			t.Errorf("%v: policy type = %v, want %v", kind, got, wantT)
		}
	}
	if len(AllPolicies()) != 4 {
		t.Error("AllPolicies wrong length")
	}
	if PolicyKind(9).String() != "policy(9)" {
		t.Error("unknown policy string")
	}
}

func TestHabitPoolsCoverAllGames(t *testing.T) {
	s := smallSystem(t)
	pools := s.HabitPools()
	for _, g := range s.Games() {
		if len(pools[g]) == 0 {
			t.Errorf("no habit pool for %s", g)
		}
	}
}

func TestEndToEndClusterRun(t *testing.T) {
	s := smallSystem(t)
	for _, kind := range AllPolicies() {
		c := s.NewCluster(1, kind)
		gen := s.Generator(5)
		c.Submit(gen.Next(gamesim.Contra()))
		c.Run(1200)
		if len(c.Records()) == 0 && c.RunningSessions() == 0 {
			t.Errorf("%v: session vanished", kind)
		}
		if kind == PolicyCoCG && len(c.Records()) == 1 {
			if c.Records()[0].FPSRatio < 0.95 {
				t.Errorf("CoCG solo Contra FPS %.3f", c.Records()[0].FPSRatio)
			}
		}
	}
}

func TestClusterSummaries(t *testing.T) {
	s := smallSystem(t)
	c := s.NewCluster(1, PolicyCoCG)
	gen := s.Generator(5)
	c.Submit(gen.Next(gamesim.Contra()))
	c.Run(1500)
	recs := c.Records()
	if len(recs) == 0 {
		t.Fatal("no completed sessions")
	}
	if platform.Throughput(recs, nil) <= 0 {
		t.Error("throughput not positive")
	}
}
