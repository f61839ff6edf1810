package predictor

import (
	"sort"

	"cocg/internal/dataset"
	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/profiler"
	"cocg/internal/resources"
)

// Trained bundles everything CoCG learns offline about one game: its
// profile (clusters + stage catalog) and the three trained prediction
// models. The paper performs this once per game; afterwards predictions are
// "once and for all" with negligible overhead.
type Trained struct {
	Spec    *gamesim.GameSpec
	Profile *profiler.Profile
	Models  []mlmodels.Classifier
	// OfflineAccuracy is the held-out next-stage accuracy of the pooled DTC
	// model — the game's P prior for Eq. 1.
	OfflineAccuracy float64
	// HabitModels holds models trained on one habit's records only — the
	// per-player training sets of mobile games and the per-cohort packing of
	// MMORPGs (Section IV-B1). Keyed by the habit seed sessions are realized
	// with.
	HabitModels map[int64][]mlmodels.Classifier
	// HabitAccuracy is the held-out accuracy of each habit's DTC model.
	HabitAccuracy map[int64]float64
	// HabitPool lists every habit seed seen in the profiling corpus —
	// the returning-player population, persisted with the bundle so a
	// loaded system can still generate known-player workloads.
	HabitPool []int64
	// TypicalCurve is the expected per-frame demand timeline of a fresh
	// session (mean demand over the corpus). The distributor uses it as the
	// arriving game's projected footprint.
	TypicalCurve []resources.Vector
	// Corpus is the profiling corpus, retained for experiments that need
	// the raw traces.
	Corpus []*gamesim.Trace
}

// Clone returns a copy of the bundle whose habit-model maps are independent
// of the original. The profile, corpus, and model values stay shared — they
// are immutable after training — but an OnlineLearner wrapping the clone can
// add dedicated models without mutating a bundle other goroutines read.
func (t *Trained) Clone() *Trained {
	out := *t
	out.HabitModels = make(map[int64][]mlmodels.Classifier, len(t.HabitModels))
	for h, m := range t.HabitModels {
		out.HabitModels[h] = m
	}
	out.HabitAccuracy = make(map[int64]float64, len(t.HabitAccuracy))
	for h, a := range t.HabitAccuracy {
		out.HabitAccuracy[h] = a
	}
	return &out
}

// Habits returns the habit seeds with dedicated models, sorted; experiments
// use them to spawn sessions of known (returning) players.
func (t *Trained) Habits() []int64 {
	out := make([]int64, 0, len(t.HabitModels))
	for h := range t.HabitModels {
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Pool returns the returning-player population: habits with dedicated
// models when they exist, else every corpus habit.
func (t *Trained) Pool() []int64 {
	if hs := t.Habits(); len(hs) > 0 {
		return hs
	}
	return t.HabitPool
}

// TrainConfig shapes the offline pass.
type TrainConfig struct {
	Players           int // corpus players; <=0 means 12
	SessionsPerPlayer int // <=0 means 3
	Seed              int64
	// ForceGlobal ignores the category-aware selection strategy and pools
	// all samples (the ablation of Section IV-B1's design).
	ForceGlobal bool
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Players <= 0 {
		c.Players = 12
	}
	if c.SessionsPerPlayer <= 0 {
		c.SessionsPerPlayer = 3
	}
	return c
}

// TrainForGame runs the full offline pipeline for one game: record a
// player-structured corpus, build the profile, extract transitions with the
// category's selection strategy, and train DTC/RF/GBDT. It runs on the
// caller's goroutine; core.Train trains games concurrently.
func TrainForGame(spec *gamesim.GameSpec, cfg TrainConfig) (*Trained, error) {
	c := cfg.withDefaults()
	corpus, err := gamesim.RecordPlayerCorpus(spec, gamesim.CorpusConfig{
		Players:           c.Players,
		SessionsPerPlayer: c.SessionsPerPlayer,
		Seed:              c.Seed,
	})
	if err != nil {
		return nil, err
	}
	prof, stages, err := profiler.BuildStages(corpus, profiler.Config{K: len(spec.Clusters), Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	strategy := dataset.StrategyFor(spec.Category)
	if c.ForceGlobal {
		strategy = dataset.Global
	}
	ex := dataset.NewExtractor(prof, corpus, stages)
	groups := dataset.Select(strategy, ex, corpus)
	// Runtime models serve any player, so pool the strategy's groups; the
	// strategy still shapes the samples (e.g. whole-playthrough chaining),
	// and Fig. 15's per-group evaluation lives in the experiments package.
	var all []dataset.Transition
	for _, g := range groups {
		all = append(all, g.Transitions...)
	}
	ds, err := dataset.ToDataset(all, prof.NumStageTypes())
	if err != nil {
		return nil, err
	}
	models, err := TrainModels(ds, c.Seed)
	if err != nil {
		return nil, err
	}
	t := &Trained{
		Spec: spec, Profile: prof, Models: models, Corpus: corpus,
		OfflineAccuracy: heldOutAccuracy(ds, c.Seed),
		TypicalCurve:    typicalCurve(corpus),
	}
	seen := map[int64]bool{}
	for _, tr := range corpus {
		if !seen[tr.Habit] {
			seen[tr.Habit] = true
			t.HabitPool = append(t.HabitPool, tr.Habit)
		}
	}
	sort.Slice(t.HabitPool, func(a, b int) bool { return t.HabitPool[a] < t.HabitPool[b] })

	// For the high-user-influence quadrants, also train dedicated models per
	// habit (per player for mobile, per cohort for MMORPG): returning
	// players get far more accurate predictions than the pooled model.
	if !c.ForceGlobal && (strategy == dataset.PerPlayer || strategy == dataset.Cohort) {
		byHabit := map[int64][]dataset.Transition{}
		for _, tr := range corpus {
			byHabit[tr.Habit] = append(byHabit[tr.Habit], ex.FromTrace(tr)...)
		}
		// Each habit's models are seeded by c.Seed+habit; habits train in
		// sorted order.
		habits := make([]int64, 0, len(byHabit))
		for habit := range byHabit {
			habits = append(habits, habit)
		}
		sort.Slice(habits, func(a, b int) bool { return habits[a] < habits[b] })
		t.HabitModels = map[int64][]mlmodels.Classifier{}
		t.HabitAccuracy = map[int64]float64{}
		for _, habit := range habits {
			trans := byHabit[habit]
			if len(trans) < 6 {
				continue // too little history for a dedicated model
			}
			hds, err := dataset.ToDataset(trans, prof.NumStageTypes())
			if err != nil {
				continue
			}
			hm, err := TrainModels(hds, c.Seed+habit)
			if err != nil {
				return nil, err
			}
			t.HabitModels[habit] = hm
			t.HabitAccuracy[habit] = heldOutAccuracy(hds, c.Seed+habit)
		}
	}
	return t, nil
}

// typicalCurve averages the per-frame demand across corpus traces (up to
// the median trace length), yielding the expected footprint of a fresh
// session of this game.
func typicalCurve(corpus []*gamesim.Trace) []resources.Vector {
	if len(corpus) == 0 {
		return nil
	}
	lengths := make([]int, len(corpus))
	for i, tr := range corpus {
		lengths[i] = len(tr.Frames)
	}
	sort.Ints(lengths)
	n := lengths[len(lengths)/2]
	if n == 0 {
		return nil
	}
	curve := make([]resources.Vector, n)
	for f := 0; f < n; f++ {
		var sum resources.Vector
		cnt := 0
		for _, tr := range corpus {
			if f < len(tr.Frames) {
				sum = sum.Add(tr.Frames[f].Demand)
				cnt++
			}
		}
		curve[f] = sum.Scale(1 / float64(cnt))
	}
	return curve
}

// heldOutAccuracy trains a DTC on 75 % of the dataset and returns its
// accuracy on the remaining 25 % — the game's prediction-accuracy prior.
func heldOutAccuracy(ds *mlmodels.Dataset, seed int64) float64 {
	train, test := ds.Split(0.75, seed)
	if test.Len() == 0 {
		return 0.9
	}
	m := mlmodels.NewDecisionTree(mlmodels.TreeConfig{Seed: seed})
	if err := m.Fit(train); err != nil {
		return 0.9
	}
	acc, err := mlmodels.Evaluate(m, test)
	if err != nil {
		return 0.9
	}
	// Smooth toward an optimistic prior so a tiny held-out set cannot
	// declare the model useless (or perfect): Beta-style pseudo-counts
	// worth four observations at 0.85.
	const pseudo, prior = 4.0, 0.85
	n := float64(test.Len())
	return (pseudo*prior + acc*n) / (pseudo + n)
}

// NewSessionPredictor returns a fresh per-session predictor over the pooled
// models, with the game's measured accuracy as the Eq. 1 prior.
func (t *Trained) NewSessionPredictor(cfg Config) (*Predictor, error) {
	if cfg.PriorAccuracy <= 0 {
		cfg.PriorAccuracy = t.OfflineAccuracy
	}
	return New(t.Profile, t.Models, cfg)
}

// NewSessionPredictorForHabit returns a predictor using the habit's
// dedicated models when they exist, falling back to the pooled models for
// first-time players.
func (t *Trained) NewSessionPredictorForHabit(habit int64, cfg Config) (*Predictor, error) {
	if m, ok := t.HabitModels[habit]; ok {
		if cfg.PriorAccuracy <= 0 {
			if a, ok := t.HabitAccuracy[habit]; ok {
				cfg.PriorAccuracy = a
			}
		}
		return New(t.Profile, m, cfg)
	}
	return t.NewSessionPredictor(cfg)
}
