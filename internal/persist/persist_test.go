package persist

import (
	"bytes"
	"compress/gzip"
	"path/filepath"
	"sync"
	"testing"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/predictor"
	"cocg/internal/simclock"
)

var (
	sysOnce sync.Once
	sysVal  *core.System
	sysErr  error
)

func trainedSystem(t *testing.T) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = core.Train(
			[]*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact()},
			core.TrainOptions{Players: 4, SessionsPerPlayer: 2, Seed: 55},
		)
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

func TestRoundTripThroughBuffer(t *testing.T) {
	sys := trainedSystem(t)
	var buf bytes.Buffer
	if err := Save(sys, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Games()) != len(sys.Games()) {
		t.Fatalf("games: %v vs %v", loaded.Games(), sys.Games())
	}
	for _, game := range sys.Games() {
		orig, _ := sys.Bundle(game)
		back, ok := loaded.Bundle(game)
		if !ok {
			t.Fatalf("%s missing after load", game)
		}
		if back.OfflineAccuracy != orig.OfflineAccuracy {
			t.Errorf("%s accuracy changed", game)
		}
		if back.Profile.NumStageTypes() != orig.Profile.NumStageTypes() {
			t.Errorf("%s catalog size changed", game)
		}
		if len(back.TypicalCurve) != len(orig.TypicalCurve) {
			t.Errorf("%s typical curve changed", game)
		}
		if len(back.Pool()) == 0 {
			t.Errorf("%s lost its habit pool", game)
		}
		if len(back.HabitModels) != len(orig.HabitModels) {
			t.Errorf("%s habit models: %d vs %d", game, len(back.HabitModels), len(orig.HabitModels))
		}
	}
}

func TestLoadedSystemSchedulesIdentically(t *testing.T) {
	sys := trainedSystem(t)
	var buf bytes.Buffer
	if err := Save(sys, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Run the same session under predictors from both systems and compare
	// the allocation streams — they must match exactly.
	game := "Genshin Impact"
	origB, _ := sys.Bundle(game)
	loadB, _ := loaded.Bundle(game)
	habit := origB.Pool()[0]
	script := int(uint64(habit) % 3)

	sessA, err := gamesim.NewPlayerSession(origB.Spec, script, habit, 999)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := gamesim.NewPlayerSession(loadB.Spec, script, habit, 999)
	if err != nil {
		t.Fatal(err)
	}
	prA, err := origB.NewSessionPredictorForHabit(habit, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prB, err := loadB.NewSessionPredictorForHabit(habit, predictor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200 && !sessA.Done(); i++ {
		dA, dB := sessA.Demand(), sessB.Demand()
		if dA != dB {
			t.Fatalf("tick %d: session divergence", i)
		}
		prA.Observe(dA)
		prB.Observe(dB)
		if prA.Alloc() != prB.Alloc() {
			t.Fatalf("tick %d: allocation divergence: %v vs %v", i, prA.Alloc(), prB.Alloc())
		}
		allocA, allocB := prA.Alloc(), prB.Alloc()
		sessA.Step(allocA.Load())
		sessB.Step(allocB.Load())
	}
}

func TestLoadedSystemRunsCluster(t *testing.T) {
	sys := trainedSystem(t)
	var buf bytes.Buffer
	if err := Save(sys, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := loaded.NewCluster(1, core.PolicyCoCG)
	gen := loaded.Generator(3)
	c.Submit(gen.Next(gamesim.Contra()))
	c.Run(20 * simclock.Minute)
	if len(c.Records()) == 0 {
		t.Fatal("loaded system completed no sessions")
	}
}

func TestFileRoundTrip(t *testing.T) {
	sys := trainedSystem(t)
	path := filepath.Join(t.TempDir(), "system.cocg.gz")
	if err := SaveFile(sys, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Games()) != 2 {
		t.Errorf("games = %v", loaded.Games())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("garbage loaded")
	}
}

func TestLoadRejectsWrongVersionAndEmpty(t *testing.T) {
	for name, doc := range map[string]string{
		"wrong version": `{"version":99,"bundles":[{"game":"Contra"}]}`,
		"empty bundles": `{"version":1,"bundles":[]}`,
		"unknown game":  `{"version":1,"bundles":[{"game":"Tetris"}]}`,
	} {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}
