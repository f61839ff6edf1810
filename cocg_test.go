package cocg_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cocg"
)

var (
	facadeOnce sync.Once
	facadeSys  *cocg.System
	facadeErr  error
)

func facadeSystem(t *testing.T) *cocg.System {
	t.Helper()
	facadeOnce.Do(func() {
		games := cocg.AllGames()
		facadeSys, facadeErr = cocg.Train(games[4:5], cocg.TrainOptions{ // Contra
			Players: 4, SessionsPerPlayer: 2, Seed: 9,
		})
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeSys
}

func TestFacadeGames(t *testing.T) {
	games := cocg.AllGames()
	if len(games) != 5 {
		t.Fatalf("AllGames = %d", len(games))
	}
	g, err := cocg.GameByName("DOTA2")
	if err != nil || g.Name != "DOTA2" {
		t.Fatalf("GameByName: %v, %v", g, err)
	}
	if _, err := cocg.GameByName("nope"); err == nil {
		t.Error("unknown game resolved")
	}
}

func TestFacadeJourney(t *testing.T) {
	sys := facadeSystem(t)
	cluster := sys.NewCluster(1, cocg.PolicyCoCG)
	gen := sys.Generator(3)
	spec, _ := cocg.GameByName("Contra")
	cluster.Submit(gen.Next(spec))
	cluster.Run(20 * cocg.Minute)
	records := cluster.Records()
	if len(records) == 0 {
		t.Fatal("no completed sessions through the facade")
	}
	if cocg.Throughput(records, nil) <= 0 {
		t.Error("throughput not positive")
	}
	sum := cocg.Summarize(records)
	if sum.Sessions != len(records) {
		t.Error("summary sessions mismatch")
	}
}

func TestFacadeSession(t *testing.T) {
	spec, _ := cocg.GameByName("Contra")
	sess, err := cocg.NewSession(spec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	full := cocg.Vector{100, 100, 100, 100}
	for i := 0; i < 4*3600 && !sess.Done(); i++ {
		sess.Step(full.Load())
	}
	if !sess.Done() {
		t.Fatal("facade session did not finish")
	}
}

func TestTimeConstants(t *testing.T) {
	if cocg.Hour != 60*cocg.Minute || cocg.Minute != 60*cocg.Second {
		t.Error("time constants inconsistent")
	}
}

func TestFacadePersistence(t *testing.T) {
	sys := facadeSystem(t)
	var buf bytes.Buffer
	if err := cocg.SaveSystem(sys, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := cocg.LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Games()) != len(sys.Games()) {
		t.Errorf("games changed: %v vs %v", loaded.Games(), sys.Games())
	}
}

func TestFacadeGameSpecJSON(t *testing.T) {
	spec, _ := cocg.GameByName("Contra")
	var buf bytes.Buffer
	if err := cocg.SaveGameSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := cocg.LoadGameSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name {
		t.Errorf("name changed: %q", back.Name)
	}
	if _, err := cocg.LoadGameSpec(strings.NewReader("junk")); err == nil {
		t.Error("junk spec loaded")
	}
}
