// Package predictor implements the ML-based stage predictor of Section IV-B:
// a real-time loop that every 5-second frame (1) collects telemetry, (2)
// judges whether the game stayed in its stage or hit a boundary, (3) predicts
// the next execution stage at each loading boundary with the active ML
// model, and (4) emits an allocation recommendation.
//
// It also implements the three dynamic-adjustment plans of Section IV-B2:
// the rehearsal callback (re-match on divergence, undo false loading
// detections), redundancy allocation S = (1-P)·M (Eq. 1), and model
// replacement after repeated errors.
package predictor

import (
	"errors"
	"fmt"

	"cocg/internal/dataset"
	"cocg/internal/mlmodels"
	"cocg/internal/profiler"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/stats"
	"cocg/internal/telemetry"
)

// ErrNoModels is returned when a predictor is constructed without models.
var ErrNoModels = errors.New("predictor: no models")

// Config tunes the predictor's adjustment plans; zero values give the
// paper's behavior.
type Config struct {
	// DisableRedundancy turns Eq. 1 off (ablation).
	DisableRedundancy bool
	// FixedRedundancy, when > 0, replaces Eq. 1 with a flat percentage of
	// the game's peak (ablation).
	FixedRedundancy float64
	// PriorAccuracy is the offline-measured prediction accuracy used as the
	// Bayesian prior for Eq. 1's P before enough session observations
	// accumulate; <=0 means 0.9. Trained bundles fill it with the game's
	// measured accuracy.
	PriorAccuracy float64
}

// switchThreshold is how many prediction errors accumulate before the
// "replacing model" plan rotates to the next algorithm.
const switchThreshold = 4

func (c Config) withDefaults() Config {
	if c.PriorAccuracy <= 0 {
		c.PriorAccuracy = 0.9
	}
	return c
}

// Decision is the predictor's output for one completed frame.
type Decision struct {
	// Event is the detector's conclusion for the frame.
	Event profiler.Event
	// Alloc is the recommended resource allocation for the next interval.
	Alloc resources.Vector
	// PredictedNext is the predicted next execution stage (valid when the
	// Event is a loading entry), else -1.
	PredictedNext int
	// Callback reports that the rehearsal callback fired this frame.
	Callback bool
	// ModelSwitched reports that the replacing-model plan rotated models.
	ModelSwitched bool
}

// Predictor is the per-session real-time predictor.
type Predictor struct {
	profile *profiler.Profile
	models  []mlmodels.Classifier
	active  int
	cfg     Config

	det     profiler.Detector
	sampler telemetry.Sampler

	hist      []dataset.StageObs
	pos       int // execution stage index within the session
	curID     int
	curFrames int
	curSum    resources.V4

	predicted     int // stage predicted at the last loading boundary
	predictedFor  int // prediction made for the currently running stage
	prevStage     int // stage running before the current loading
	loadingFrames int
	// pendingScore holds the prediction for a just-entered stage while its
	// identification is tentative (the boundary frame); the settle step
	// narrows the allocation one frame later. Accuracy itself is scored
	// when the stage completes, against its final identification.
	pendingScore int
	entryFresh   bool

	acc       stats.Accuracy
	errStreak int
	alloc     resources.Vector
	peakM     resources.Vector
	haveStage bool
	// featBuf backs predictNext's feature assembly across frames.
	featBuf []float64
	// recovering is set while the session runs on a re-matched stage after
	// a prediction or detection error; Section IV-B2 adds the redundancy S
	// to allocations made in that state ("the utilization of callback
	// resources cannot simply be set to a regular value"). A fresh
	// prediction cycle at the next loading boundary clears it.
	recovering bool
	// dec is the last completed frame's Decision, which Observe returns.
	dec Decision
}

// New builds a predictor from a profile and trained models (tried in order
// by the replacing-model plan).
func New(p *profiler.Profile, models []mlmodels.Classifier, cfg Config) (*Predictor, error) {
	if len(models) == 0 {
		return nil, ErrNoModels
	}
	pr := &Predictor{
		profile:      p,
		models:       models,
		cfg:          cfg.withDefaults(),
		det:          *profiler.NewDetector(p),
		predicted:    -1,
		predictedFor: -1,
		prevStage:    -1,
		pendingScore: -1,
		curID:        profiler.LoadingStageID,
		peakM:        p.PeakDemand(),
	}
	// Until the first stage is identified the safe allocation is the game's
	// peak — exactly what stage-unaware baselines always reserve.
	pr.alloc = pr.peakM
	return pr, nil
}

// ActiveModel returns the name of the model currently in use.
func (pr *Predictor) ActiveModel() string { return pr.models[pr.active].Name() }

// accPriorWeight is how many pseudo-observations the offline prior counts
// for when blending with the session's running accuracy.
const accPriorWeight = 10

// Accuracy returns the prediction accuracy P of Eq. 1: the offline-measured
// prior blended with the session's own observations, so one unlucky early
// transition does not blow the redundancy up to the full peak.
func (pr *Predictor) Accuracy() float64 {
	return (accPriorWeight*pr.cfg.PriorAccuracy + float64(pr.acc.Correct)) /
		(accPriorWeight + float64(pr.acc.Total))
}

// Alloc returns the current allocation recommendation.
func (pr *Predictor) Alloc() resources.Vector { return pr.alloc }

// redundancy computes the slack vector S of Eq. 1: S = (1-P) × M, where P is
// the running prediction accuracy and M the game's peak consumption.
func (pr *Predictor) redundancy() resources.Vector {
	if pr.cfg.DisableRedundancy {
		return resources.Zero
	}
	if pr.cfg.FixedRedundancy > 0 {
		return pr.peakM.Scale(pr.cfg.FixedRedundancy)
	}
	return pr.peakM.Scale(1 - pr.Accuracy())
}

// Headroom covering per-second demand variance that 5-second frames smooth
// away: the sustained peak is a frame-level statistic, so a multiplicative
// margin plus a small absolute floor (which matters for low-consumption
// games, where jitter is large relative to the level) keeps second-level
// jitter from dropping frames.
const (
	allocHeadroomScale = 1.08
	allocHeadroomAbs   = 2.0 // percent points
)

// stageAlloc is the allocation for a known stage: its observed sustained
// peak with second-level headroom, clamped to server capacity. While the
// predictor is recovering from an error, the Eq. 1 redundancy S is added on
// top.
func (pr *Predictor) stageAlloc(id int) resources.Vector {
	s, ok := pr.profile.Stage(id)
	if !ok {
		return pr.peakM
	}
	base := s.Peak.Scale(allocHeadroomScale).Add(resources.Uniform(allocHeadroomAbs))
	if pr.recovering {
		base = base.Add(pr.redundancy())
	}
	return base.Clamp(0, 100)
}

// Observe feeds one second of telemetry. When the second completes a frame,
// the full detection/prediction step runs and the resulting Decision is
// returned with ok = true. Every piece of state a demand forecast reads
// (detector belief, stage history, running stage stats, pending prediction,
// active model) mutates only inside that step, so a forecast is unchanged
// while Observe returns ok = false. A frame completes only inside a server
// tick, which is why the distributor's per-server forecast cache can key on
// the server's tick count (see scheduler.CoCG).
//
//cocg:inline
func (pr *Predictor) Observe(util resources.V4) (Decision, bool) {
	if !pr.observe(util) {
		return Decision{}, false
	}
	return pr.dec, true
}

// observe samples util and reports whether that completed a frame (stepped).
//
//cocg:hot
func (pr *Predictor) observe(util resources.V4) bool {
	frame, ok := pr.sampler.Observe(util)
	if ok {
		pr.step(frame)
	}
	return ok
}

// step runs the stage-judgment / prediction / adjustment pipeline of Fig. 8
// on one frame and records the outcome in pr.dec.
func (pr *Predictor) step(frame resources.V4) {
	d := &pr.dec
	d.Event, d.PredictedNext, d.Callback, d.ModelSwitched = pr.det.Observe(frame.Vector()), -1, false, false
	ev := d.Event

	switch ev.Kind {
	case profiler.EventSame:
		if ev.StageID == profiler.LoadingStageID {
			pr.loadingFrames++
		} else {
			pr.accumulate(frame)
		}

	case profiler.EventLoadingEntered:
		// A stage boundary. First score the prediction that was made for
		// the stage that just completed, against its final identification.
		if pr.haveStage && pr.predictedFor >= 0 {
			correct := pr.curID == pr.predictedFor
			pr.acc.Observe(correct)
			if correct {
				pr.errStreak = 0
			} else {
				pr.recordError(d)
			}
		}
		pr.predictedFor = -1
		// Then close the finished stage, predict what comes next, and
		// pre-provision for it (Fig. 8's "resource adjustment": resources
		// are reassigned during loading so the next execution stage starts
		// fully covered). Without a prediction the safe cover is the game's
		// peak. A fresh prediction cycle ends any error recovery.
		pr.finishStage()
		pr.recovering = false
		pr.loadingFrames = 1
		d.PredictedNext = pr.predictNext()
		pr.predicted = d.PredictedNext
		load, _ := pr.profile.Stage(profiler.LoadingStageID)
		base := load.Peak.Scale(allocHeadroomScale).Add(resources.Uniform(allocHeadroomAbs))
		if d.PredictedNext >= 0 {
			base = base.Max(pr.stageAlloc(d.PredictedNext))
		} else {
			base = base.Max(pr.peakM)
		}
		pr.alloc = base.Clamp(0, 100)

	case profiler.EventStageEntered:
		entered := ev.StageID
		if pr.prevStage >= 0 && entered == pr.prevStage && pr.loadingFrames <= 1 {
			// Rehearsal callback, second error type: the "loading" was a
			// transient dip, not a stage switch. Return to the previous
			// stage's allocation and do not score the prediction.
			d.Callback = true
			pr.reopenStage(entered, frame)
		} else {
			// Identification is tentative on the boundary frame; the settle
			// step narrows the allocation one frame later, and accuracy is
			// scored when the stage completes.
			pr.pendingScore = pr.predicted
			pr.predictedFor = pr.predicted
			pr.entryFresh = true
			pr.openStage(entered, frame)
		}
		pr.predicted = -1
		// While the entry identification is tentative, keep covering the
		// predicted stage too; the settle step narrows the allocation.
		pr.alloc = pr.stageAlloc(pr.curID)
		if pr.pendingScore >= 0 {
			pr.alloc = pr.alloc.Max(pr.stageAlloc(pr.pendingScore))
		}

	case profiler.EventRefined:
		pr.curID = ev.StageID
		pr.accumulate(frame)
		pr.alloc = pr.stageAlloc(pr.curID)
		if s, ok := pr.profile.Stage(ev.StageID); ok && !s.Loading {
			pr.haveStage = true
		}

	case profiler.EventMismatch:
		// Rehearsal callback, first error type: real-time data diverged
		// from the believed stage and is not loading — re-match to the
		// best candidate immediately, with redundancy on the re-matched
		// allocation (Eq. 1).
		d.Callback = true
		pr.recovering = true
		pr.recordError(d)
		if ev.Candidate >= 0 {
			pr.det.ForceStage(ev.Candidate)
			pr.curID = ev.Candidate
			pr.accumulate(frame)
			pr.alloc = pr.stageAlloc(pr.curID)
		} else {
			// No catalog match: hold the stage but provision for what we
			// actually observe plus redundancy.
			pr.accumulate(frame)
			pr.alloc = frame.Vector().Add(pr.redundancy()).Max(pr.alloc).Clamp(0, 100)
		}
	}
	// Settle the entry identification once it has survived (or been
	// corrected on) its first follow-up frame.
	if pr.entryFresh && ev.Kind != profiler.EventStageEntered {
		if pr.curID == pr.prevStage && pr.loadingFrames <= 1 && len(pr.hist) > 0 &&
			pr.hist[len(pr.hist)-1].ID == pr.curID {
			// The settled identification reveals a false loading detection
			// (a sub-frame dip): rejoin the interrupted stage — rehearsal
			// callback, second error type.
			d.Callback = true
			last := pr.hist[len(pr.hist)-1]
			pr.hist = pr.hist[:len(pr.hist)-1]
			pr.pos--
			pr.curFrames += last.Frames
			pr.curSum = pr.curSum.Add(last.Mean.Load().Scale(float64(last.Frames)))
			if len(pr.hist) > 0 {
				pr.prevStage = pr.hist[len(pr.hist)-1].ID
			} else {
				pr.prevStage = -1
			}
		}
		// Identification settled: narrow the allocation to the stage the
		// game is actually in. A settled identity that contradicts the
		// prediction is an error — recover with redundancy.
		if pr.pendingScore >= 0 && pr.curID != pr.pendingScore {
			pr.recovering = true
		}
		pr.alloc = pr.stageAlloc(pr.curID)
		pr.pendingScore = -1
		pr.entryFresh = false
	}
	d.Alloc = pr.alloc
}

// accumulate folds a frame into the running stats of the current stage.
func (pr *Predictor) accumulate(frame resources.V4) {
	pr.curFrames++
	pr.curSum = pr.curSum.Add(frame)
}

// openStage starts tracking a newly entered stage.
func (pr *Predictor) openStage(id int, frame resources.V4) {
	pr.curID = id
	pr.curFrames = 0
	pr.curSum = resources.V4{}
	pr.haveStage = true
	pr.accumulate(frame)
}

// reopenStage resumes the stage that a false loading detection interrupted.
func (pr *Predictor) reopenStage(id int, frame resources.V4) {
	if len(pr.hist) > 0 && pr.hist[len(pr.hist)-1].ID == id {
		// Pull the stage back out of history and continue it.
		last := pr.hist[len(pr.hist)-1]
		pr.hist = pr.hist[:len(pr.hist)-1]
		pr.pos--
		pr.curID = last.ID
		pr.curFrames = last.Frames
		pr.curSum = last.Mean.Load().Scale(float64(last.Frames))
		pr.haveStage = true
		pr.accumulate(frame)
		return
	}
	pr.openStage(id, frame)
}

// finishStage closes the current execution stage into the history.
func (pr *Predictor) finishStage() {
	if !pr.haveStage || pr.curFrames == 0 {
		return
	}
	pr.hist = append(pr.hist, dataset.StageObs{
		ID:     pr.curID,
		Frames: pr.curFrames,
		Mean:   pr.curSum.Scale(1 / float64(pr.curFrames)).Vector(),
	})
	pr.prevStage = pr.curID
	pr.pos++
	pr.haveStage = false
	pr.curFrames = 0
	pr.curSum = resources.V4{}
}

// predictNext runs the active model on the session's stage history. It
// returns -1 when there is no history yet.
func (pr *Predictor) predictNext() int {
	if len(pr.hist) == 0 {
		return -1
	}
	pr.featBuf = dataset.AppendFeatures(pr.featBuf, pr.hist, pr.pos-1)
	next, err := pr.models[pr.active].Predict(pr.featBuf)
	if err != nil || next < 0 || next >= pr.profile.NumStageTypes() {
		return -1
	}
	if s, ok := pr.profile.Stage(next); ok && s.Loading {
		return -1 // a model must never predict "loading" as the next stage
	}
	return next
}

// recordError applies the replacing-model plan: after switchThreshold
// accumulated errors the next algorithm takes over.
func (pr *Predictor) recordError(d *Decision) {
	pr.errStreak++
	if pr.errStreak >= switchThreshold && len(pr.models) > 1 {
		pr.active = (pr.active + 1) % len(pr.models)
		pr.errStreak = 0
		d.ModelSwitched = true
	}
}

// History returns a copy of the completed-stage history.
func (pr *Predictor) History() []dataset.StageObs {
	out := make([]dataset.StageObs, len(pr.hist))
	copy(out, pr.hist)
	return out
}

// PredictionLatency models the end-to-end latency of one prediction in the
// paper's deployment (Fig. 12): one telemetry frame to confirm the loading
// stage plus model-complexity-dependent inference and feature assembly. The
// paper measures 3-13 s, always below the 5-30 s loading times.
func PredictionLatency(m mlmodels.Classifier, catalogSize int) simclock.Seconds {
	base := 3 * simclock.Second
	var extra float64
	switch mm := m.(type) {
	case *mlmodels.DecisionTree:
		extra = 0.2 * float64(mm.Depth())
	case *mlmodels.RandomForest:
		extra = 0.08 * float64(mm.NumTrees())
	case *mlmodels.GBDT:
		extra = 0.1 * float64(mm.Rounds())
	default:
		extra = 2
	}
	extra += 0.2 * float64(catalogSize)
	lat := base + simclock.Seconds(extra)
	if lat > 13*simclock.Second {
		lat = 13 * simclock.Second
	}
	return lat
}

// TrainModels trains the paper's three algorithms (DTC, RF, GBDT) on one
// dataset, on the caller's goroutine, and returns them in that order.
func TrainModels(ds *mlmodels.Dataset, seed int64) ([]mlmodels.Classifier, error) {
	models := []mlmodels.Classifier{
		mlmodels.NewDecisionTree(mlmodels.TreeConfig{Seed: seed}),
		mlmodels.NewRandomForest(mlmodels.ForestConfig{NumTrees: 40, Seed: seed}),
		mlmodels.NewGBDT(mlmodels.GBDTConfig{NumRounds: 40, Seed: seed}),
	}
	for _, m := range models {
		if err := m.Fit(ds); err != nil {
			return nil, fmt.Errorf("predictor: training %s: %w", m.Name(), err)
		}
	}
	return models, nil
}
