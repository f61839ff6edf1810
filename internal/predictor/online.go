package predictor

import (
	"sync"

	"cocg/internal/dataset"
	"cocg/internal/mlmodels"
)

// OnlineLearner extends the paper's once-and-for-all offline training with
// continual refinement: it accumulates the stage histories that live
// predictors observe and, once a player has contributed enough transitions,
// trains that player a dedicated model set. A brand-new (cold-start) player
// begins on the pooled models and graduates to per-habit models after a few
// sessions — the mechanism behind the paper's remark that mobile-game
// prediction "can be done once and for all" as players keep returning.
type OnlineLearner struct {
	trained *Trained
	// MinTransitions is how many observed transitions a habit needs before
	// a dedicated model is trained.
	MinTransitions int
	// Seed drives retraining determinism.
	Seed int64

	mu      sync.Mutex
	byHabit map[int64][]dataset.Transition
	retrain map[int64]int // transitions count at last retrain
}

// NewOnlineLearner wraps a trained bundle; minTransitions <= 0 means 8.
func NewOnlineLearner(t *Trained, minTransitions int, seed int64) *OnlineLearner {
	if minTransitions <= 0 {
		minTransitions = 8
	}
	return &OnlineLearner{
		trained:        t,
		MinTransitions: minTransitions,
		Seed:           seed,
		byHabit:        map[int64][]dataset.Transition{},
		retrain:        map[int64]int{},
	}
}

// RecordSession folds one completed session's observed stage history into
// the player's sample pool. Call it with Predictor.History() when a session
// ends.
func (l *OnlineLearner) RecordSession(habit int64, hist []dataset.StageObs) {
	trans := dataset.FromStages(hist, habit, 0)
	if len(trans) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byHabit[habit] = append(l.byHabit[habit], trans...)
}

// TransitionCount returns how many transitions a habit has contributed.
func (l *OnlineLearner) TransitionCount(habit int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byHabit[habit])
}

// MaybeTrain trains (or retrains) the habit's dedicated models when enough
// new transitions have accumulated since the last training. It returns
// whether a training ran.
func (l *OnlineLearner) MaybeTrain(habit int64) (bool, error) {
	l.mu.Lock()
	trans := append([]dataset.Transition(nil), l.byHabit[habit]...)
	last := l.retrain[habit]
	l.mu.Unlock()

	if len(trans) < l.MinTransitions || len(trans) == last {
		return false, nil
	}
	ds, err := dataset.ToDataset(trans, l.trained.Profile.NumStageTypes())
	if err != nil {
		return false, err
	}
	models, err := TrainModels(ds, l.Seed+habit)
	if err != nil {
		return false, err
	}
	acc := heldOutAccuracy(ds, l.Seed+habit)

	l.mu.Lock()
	if l.trained.HabitModels == nil {
		l.trained.HabitModels = map[int64][]mlmodels.Classifier{}
	}
	if l.trained.HabitAccuracy == nil {
		l.trained.HabitAccuracy = map[int64]float64{}
	}
	l.trained.HabitModels[habit] = models
	l.trained.HabitAccuracy[habit] = acc
	l.retrain[habit] = len(trans)
	l.mu.Unlock()
	return true, nil
}

// Observe is the convenience loop hook: record the finished session and
// retrain if due.
func (l *OnlineLearner) Observe(habit int64, pr *Predictor) (trained bool, err error) {
	l.RecordSession(habit, pr.History())
	return l.MaybeTrain(habit)
}
