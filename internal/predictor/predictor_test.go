package predictor

import (
	"math"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/profiler"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/stats"
)

// trainedFor caches one trained bundle per game for the whole test package.
var trainedCache = map[string]*Trained{}

func trainedFor(t testing.TB, spec *gamesim.GameSpec) *Trained {
	t.Helper()
	if tr, ok := trainedCache[spec.Name]; ok {
		return tr
	}
	tr, err := TrainForGame(spec, TrainConfig{Players: 8, SessionsPerPlayer: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	trainedCache[spec.Name] = tr
	return tr
}

// drive runs a live session through a predictor, granting the predictor's
// recommended allocation each second, and returns the decisions.
func drive(t *testing.T, tr *Trained, scriptIdx int, seed int64, cfg Config) (*gamesim.Session, *Predictor, []Decision) {
	t.Helper()
	sess, err := gamesim.NewSession(tr.Spec, scriptIdx, seed)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := tr.NewSessionPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return driveLoop(t, sess, pr)
}

// driveHabit is drive for a returning player: the session uses the habit
// seed and the predictor the habit's dedicated models.
func driveHabit(t *testing.T, tr *Trained, scriptIdx int, habit, sessionSeed int64, cfg Config) (*gamesim.Session, *Predictor, []Decision) {
	t.Helper()
	sess, err := gamesim.NewPlayerSession(tr.Spec, scriptIdx, habit, sessionSeed)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := tr.NewSessionPredictorForHabit(habit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return driveLoop(t, sess, pr)
}

func driveLoop(t *testing.T, sess *gamesim.Session, pr *Predictor) (*gamesim.Session, *Predictor, []Decision) {
	t.Helper()
	var decisions []Decision
	for i := 0; i < 4*3600 && !sess.Done(); i++ {
		demand := sess.Demand()
		if d, ok := pr.Observe(demand); ok {
			decisions = append(decisions, d)
		}
		alloc := pr.Alloc()
		sess.Step(alloc.Load())
	}
	if !sess.Done() {
		t.Fatal("session did not finish")
	}
	return sess, pr, decisions
}

func TestNewRequiresModels(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	if _, err := New(tr.Profile, nil, Config{}); err != ErrNoModels {
		t.Errorf("err = %v", err)
	}
}

func TestTrainForGameProducesThreeModels(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	if len(tr.Models) != 3 {
		t.Fatalf("models = %d", len(tr.Models))
	}
	names := map[string]bool{}
	for _, m := range tr.Models {
		names[m.Name()] = true
	}
	for _, want := range []string{"DTC", "RF", "GBDT"} {
		if !names[want] {
			t.Errorf("missing model %s", want)
		}
	}
}

func TestPredictorMaintainsQoSWhileSaving(t *testing.T) {
	// The core single-game result (Fig. 10): allocating per predicted stage
	// keeps QoS while reserving much less than the game's peak. Uses a
	// returning player, whose dedicated (per-player) model is accurate.
	tr := trainedFor(t, gamesim.GenshinImpact())
	habits := tr.Habits()
	if len(habits) == 0 {
		t.Fatal("no habit models for a mobile game")
	}
	// Use the best-established returning player (highest offline accuracy),
	// matching the paper's setting of a well-profiled game.
	best := habits[0]
	for _, h := range habits[1:] {
		if tr.HabitAccuracy[h] > tr.HabitAccuracy[best] {
			best = h
		}
	}
	sess, pr, decisions := driveHabit(t, tr, 0, best, 4242, Config{})
	if sess.FPSRatio() < 0.9 {
		t.Errorf("FPSRatio = %.3f under predictor-driven allocation", sess.FPSRatio())
	}
	if sess.DegradedFraction() > 0.1 {
		t.Errorf("DegradedFraction = %.3f", sess.DegradedFraction())
	}
	// Mean allocation across frames must be clearly below peak-based
	// allocation.
	peak := tr.Profile.PeakDemand()
	var gpuSum float64
	for _, d := range decisions {
		gpuSum += d.Alloc[resources.GPU]
	}
	meanGPU := gpuSum / float64(len(decisions))
	if meanGPU > peak[resources.GPU]*0.95 {
		t.Errorf("mean GPU alloc %.1f not below peak %.1f", meanGPU, peak[resources.GPU])
	}
	_ = pr
}

func TestPredictorEmitsBoundaryEvents(t *testing.T) {
	tr := trainedFor(t, gamesim.CSGO())
	_, _, decisions := drive(t, tr, 0, 7, Config{})
	var loads, enters, preds int
	for _, d := range decisions {
		switch d.Event.Kind {
		case profiler.EventLoadingEntered:
			loads++
			if d.PredictedNext >= 0 {
				preds++
			}
		case profiler.EventStageEntered:
			enters++
		}
	}
	if loads == 0 || enters == 0 {
		t.Fatalf("loads=%d enters=%d", loads, enters)
	}
	if preds == 0 {
		t.Error("no predictions made at loading boundaries")
	}
}

func TestAccuracyTracked(t *testing.T) {
	tr := trainedFor(t, gamesim.DevilMayCry())
	_, pr, _ := drive(t, tr, 2, 99, Config{})
	if pr.acc.Total == 0 {
		t.Fatal("no predictions scored")
	}
	if a := pr.Accuracy(); a < 0 || a > 1 {
		t.Errorf("accuracy = %v", a)
	}
}

func TestAccuracyPriorBeforeObservations(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	// Direct construction uses the default prior of 0.9.
	pr, err := New(tr.Profile, tr.Models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Accuracy() != 0.9 {
		t.Errorf("default prior accuracy = %v, want 0.9", pr.Accuracy())
	}
	// The Trained bundle injects the game's measured offline accuracy.
	pr2, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pr2.Accuracy(); math.Abs(got-tr.OfflineAccuracy) > 1e-9 {
		t.Errorf("bundle prior = %v, want measured %v", got, tr.OfflineAccuracy)
	}
	if tr.OfflineAccuracy < 0.3 || tr.OfflineAccuracy > 0.97 {
		t.Errorf("OfflineAccuracy = %v outside clamp range", tr.OfflineAccuracy)
	}
}

func TestRedundancyEq1(t *testing.T) {
	// S = (1-P) × M, component-wise, where P blends the offline prior with
	// session observations.
	tr := trainedFor(t, gamesim.Contra())
	pr, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	M := tr.Profile.PeakDemand()
	P := pr.Accuracy()
	S := pr.redundancy()
	for d := range S {
		want := (1 - P) * M[d]
		if math.Abs(S[d]-want) > 1e-9 {
			t.Errorf("S[%d] = %v, want %v", d, S[d], want)
		}
	}
	// More correct observations shrink the redundancy; more errors grow it.
	before := pr.redundancy()[resources.GPU]
	pr.acc.Observe(true)
	afterGood := pr.redundancy()[resources.GPU]
	if afterGood >= before {
		t.Errorf("redundancy did not shrink after a correct prediction: %v -> %v", before, afterGood)
	}
	pr.acc = stats.Accuracy{}
	pr.acc.Observe(false)
	pr.acc.Observe(false)
	afterBad := pr.redundancy()[resources.GPU]
	if afterBad <= before {
		t.Errorf("redundancy did not grow after errors: %v -> %v", before, afterBad)
	}
	// P stays in [0, 1], so S stays within [0, M].
	if afterBad > M[resources.GPU] {
		t.Errorf("redundancy exceeds peak: %v > %v", afterBad, M[resources.GPU])
	}
}

func TestRedundancyConfigVariants(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	off, err := tr.NewSessionPredictor(Config{DisableRedundancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !off.redundancy().IsZero() {
		t.Error("disabled redundancy not zero")
	}
	fixed, err := tr.NewSessionPredictor(Config{FixedRedundancy: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Profile.PeakDemand().Scale(0.1)
	if fixed.redundancy() != want {
		t.Errorf("fixed redundancy = %v, want %v", fixed.redundancy(), want)
	}
}

func TestInitialAllocIsPeak(t *testing.T) {
	tr := trainedFor(t, gamesim.DOTA2())
	pr, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Alloc() != tr.Profile.PeakDemand() {
		t.Errorf("initial alloc = %v", pr.Alloc())
	}
}

func TestRehearsalCallbackFiresOnSpikes(t *testing.T) {
	// Genshin has the highest spike rate; across several sessions the
	// rehearsal callback must fire at least once and the session must still
	// finish with good QoS.
	tr := trainedFor(t, gamesim.GenshinImpact())
	callbacks := 0
	for seed := int64(100); seed < 112; seed++ {
		sess, _, decisions := drive(t, tr, int(seed)%3, seed, Config{})
		for _, d := range decisions {
			if d.Callback {
				callbacks++
			}
		}
		if sess.FPSRatio() < 0.85 {
			t.Errorf("seed %d: FPSRatio %.3f", seed, sess.FPSRatio())
		}
	}
	if callbacks == 0 {
		t.Error("rehearsal callback never fired across 12 spiky sessions")
	}
}

func TestModelSwitchAfterRepeatedErrors(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	pr, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := pr.ActiveModel()
	var switched bool
	var d Decision
	for i := 0; i < switchThreshold; i++ {
		pr.recordError(&d)
		if d.ModelSwitched {
			switched = true
		}
	}
	if !switched {
		t.Fatal("model did not switch after threshold errors")
	}
	if pr.ActiveModel() == before {
		t.Error("active model unchanged after switch")
	}
}

func TestPredictionLatencyWithinPaperRange(t *testing.T) {
	// Fig. 12: prediction takes 3-13 s, always below the loading times.
	for _, g := range gamesim.AllGames() {
		tr := trainedFor(t, g)
		for _, m := range tr.Models {
			lat := PredictionLatency(m, tr.Profile.NumStageTypes())
			if lat < 3*simclock.Second || lat > 13*simclock.Second {
				t.Errorf("%s/%s latency = %d s", g.Name, m.Name(), lat)
			}
		}
	}
}

func TestPredictNextNeverReturnsLoading(t *testing.T) {
	tr := trainedFor(t, gamesim.GenshinImpact())
	for seed := int64(0); seed < 5; seed++ {
		_, _, decisions := drive(t, tr, 0, 3000+seed, Config{})
		for _, d := range decisions {
			if d.PredictedNext == profiler.LoadingStageID {
				t.Fatal("predicted the loading stage as next")
			}
		}
	}
}

func TestPredictedAllocCoversStagePeak(t *testing.T) {
	tr := trainedFor(t, gamesim.DevilMayCry())
	pr, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Profile.Catalog {
		alloc := pr.stageAlloc(s.ID)
		capped := s.Peak.Clamp(0, 100)
		if !capped.Fits(alloc.Add(resources.Uniform(1e-9))) {
			t.Errorf("stage %d alloc %v below peak %v", s.ID, alloc, s.Peak)
		}
	}
	// Unknown stage falls back to game peak.
	if pr.stageAlloc(-5) != tr.Profile.PeakDemand() {
		t.Error("unknown stage alloc is not the peak fallback")
	}
}

func TestHistoryCopies(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	_, pr, _ := drive(t, tr, 2, 55, Config{})
	h := pr.History()
	if len(h) == 0 {
		t.Fatal("no history accumulated")
	}
	h[0].ID = -99
	if pr.History()[0].ID == -99 {
		t.Error("History aliases internal state")
	}
}

func TestTrainModelsErrorsOnEmpty(t *testing.T) {
	if _, err := TrainModels(&mlmodels.Dataset{}, 1); err == nil {
		t.Error("empty dataset did not error")
	}
}

func TestForecastCurveProperties(t *testing.T) {
	tr := trainedFor(t, gamesim.DOTA2())
	pr, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var scratch ForecastScratch
	for _, frames := range []int{1, 10, 120} {
		demand := pr.ForecastDemandInto(frames, nil, &scratch)
		if len(demand) != frames {
			t.Fatalf("ForecastDemandInto(%d) length %d", frames, len(demand))
		}
		for i := range demand {
			for d := range demand[i] {
				if demand[i][d] < 0 || demand[i][d] > 100 {
					t.Fatalf("demand[%d] out of range: %v", i, demand[i])
				}
			}
		}
	}
}

func TestForecastAfterSomeHistory(t *testing.T) {
	tr := trainedFor(t, gamesim.DevilMayCry())
	_, pr, _ := drive(t, tr, 2, 4242, Config{})
	curve := pr.ForecastDemandInto(60, nil, &ForecastScratch{})
	if len(curve) != 60 {
		t.Fatalf("length %d", len(curve))
	}
	// A forecast over a finished session is still well-formed.
	var nonzero bool
	for _, v := range curve {
		if !v.IsZero() {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("forecast entirely zero")
	}
}
