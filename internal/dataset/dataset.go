// Package dataset turns profiled game traces into next-stage prediction
// datasets, implementing the category-aware training-set selection of
// Section IV-B1: web games pool every player's records, mobile games train
// per player, console games chain each player's sessions into whole
// playthroughs, and MMORPG/MOBA games pack players who queue together.
package dataset

import (
	"sort"

	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/profiler"
	"cocg/internal/resources"
)

// Strategy is a training-set selection policy from Section IV-B1.
type Strategy int

// The four selection strategies, one per Fig. 7 quadrant.
const (
	// Global pools all players' records (web games).
	Global Strategy = iota
	// PerPlayer builds one training set per player (mobile games).
	PerPlayer
	// WholeProcess chains each player's sessions into one long playthrough
	// before extracting transitions (console games).
	WholeProcess
	// Cohort packs the records of players who log in together (MMORPG).
	Cohort
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Global:
		return "global"
	case PerPlayer:
		return "per-player"
	case WholeProcess:
		return "whole-process"
	case Cohort:
		return "cohort"
	default:
		return "strategy(?)"
	}
}

// StrategyFor maps a game category to its paper-prescribed strategy.
func StrategyFor(c gamesim.Category) Strategy {
	switch c {
	case gamesim.Web:
		return Global
	case gamesim.Mobile:
		return PerPlayer
	case gamesim.Console:
		return WholeProcess
	case gamesim.MMORPG:
		return Cohort
	default:
		return Global
	}
}

// StageObs is one observed execution stage: the unit of prediction history.
// The online predictor accumulates these as the detector reports stage
// boundaries, and the offline extractor derives them from traces, so both
// sides build identical feature vectors.
type StageObs struct {
	ID     int // catalog stage ID
	Frames int // observed length in frames
	Mean   resources.Vector
}

// HistoryLen is how many previous stages (beyond the current one) feed the
// feature vector.
const HistoryLen = 3

// NumFeatures is the fixed feature-vector length produced by Features.
const NumFeatures = HistoryLen + 1 + 1 + int(resources.NumDims) + 1

// Features builds the model input for predicting the stage after hist's
// last entry. hist is ordered oldest-first and must be non-empty; pos is the
// index of the current stage within its (possibly multi-session) sequence.
func Features(hist []StageObs, pos int) []float64 {
	return AppendFeatures(make([]float64, 0, NumFeatures), hist, pos)
}

// AppendFeatures is Features into a caller-provided buffer: it appends the
// NumFeatures-long vector to f[:0]'s backing array and returns the result,
// so per-frame predictors and forecast loops can reuse one buffer instead of
// allocating per prediction.
func AppendFeatures(f []float64, hist []StageObs, pos int) []float64 {
	f = f[:0]
	// Previous HistoryLen stage IDs, oldest slot first, -1 padding.
	for i := HistoryLen; i >= 1; i-- {
		idx := len(hist) - 1 - i
		if idx < 0 {
			f = append(f, -1)
		} else {
			f = append(f, float64(hist[idx].ID))
		}
	}
	cur := hist[len(hist)-1]
	f = append(f, float64(cur.ID), float64(cur.Frames))
	for d := resources.Dim(0); d < resources.NumDims; d++ {
		f = append(f, cur.Mean[d])
	}
	f = append(f, float64(pos))
	return f
}

// Transition is one labeled prediction example plus the provenance the
// selection strategies group by.
type Transition struct {
	Features []float64
	Label    int // catalog ID of the next execution stage
	Player   int64
	Cohort   int64
}

// Extractor derives transitions from traces using a game profile.
type Extractor struct {
	P *profiler.Profile
	// stages holds the execution-stage sequences of the corpus
	// NewExtractor was given; any other trace is detected on demand.
	stages map[*gamesim.Trace][]StageObs
}

// NewExtractor returns an extractor over p whose corpus is already detected:
// stages[i] is traces[i]'s detection against p, as profiler.BuildStages
// returns it. Extraction from those traces then reads the detection instead
// of repeating it.
func NewExtractor(p *profiler.Profile, traces []*gamesim.Trace, stages [][]profiler.Detected) *Extractor {
	e := &Extractor{P: p, stages: make(map[*gamesim.Trace][]StageObs, len(traces))}
	for i, tr := range traces {
		e.stages[tr] = execStages(stages[i])
	}
	return e
}

// stagesOf returns the detected execution stages of a trace as observations,
// dropping stages the profile could not identify.
func (e *Extractor) stagesOf(tr *gamesim.Trace) []StageObs {
	if obs, ok := e.stages[tr]; ok {
		return obs
	}
	return execStages(e.P.DetectStages(tr.FrameVectors()))
}

// execStages keeps a detection's identified execution stages.
func execStages(det []profiler.Detected) []StageObs {
	var out []StageObs
	for _, d := range det {
		if d.Loading || d.StageID < 0 {
			continue
		}
		out = append(out, StageObs{ID: d.StageID, Frames: d.Frames(), Mean: d.Mean})
	}
	return out
}

// FromTrace extracts the transitions of one session.
func (e *Extractor) FromTrace(tr *gamesim.Trace) []Transition {
	return e.fromStages(e.stagesOf(tr), tr.Player, tr.Cohort)
}

// FromChain chains several sessions of one player (oldest first) into a
// single playthrough and extracts transitions across session boundaries —
// the console-game sample construction.
func (e *Extractor) FromChain(traces []*gamesim.Trace) []Transition {
	if len(traces) == 0 {
		return nil
	}
	var chain []StageObs
	for _, tr := range traces {
		chain = append(chain, e.stagesOf(tr)...)
	}
	return e.fromStages(chain, traces[0].Player, traces[0].Cohort)
}

func (e *Extractor) fromStages(stages []StageObs, player, cohort int64) []Transition {
	return FromStages(stages, player, cohort)
}

// FromStages converts an observed execution-stage sequence into labeled
// transitions. The online learner uses it on the histories live predictors
// accumulate, so runtime-collected samples are feature-identical to
// offline-extracted ones.
func FromStages(stages []StageObs, player, cohort int64) []Transition {
	var out []Transition
	for i := 0; i+1 < len(stages); i++ {
		lo := i + 1 - (HistoryLen + 1)
		if lo < 0 {
			lo = 0
		}
		out = append(out, Transition{
			Features: Features(stages[lo:i+1], i),
			Label:    stages[i+1].ID,
			Player:   player,
			Cohort:   cohort,
		})
	}
	return out
}

// Group is one independently trained and evaluated sample set.
type Group struct {
	Name        string
	Transitions []Transition
}

// Select applies a strategy to a corpus, returning the groups a model is
// trained on. Global and WholeProcess return one group; PerPlayer returns
// one per player; Cohort one per cohort.
func Select(strategy Strategy, e *Extractor, traces []*gamesim.Trace) []Group {
	switch strategy {
	case PerPlayer:
		return groupBy(traces, e, func(tr *gamesim.Trace) int64 { return tr.Player }, "player")
	case Cohort:
		return groupBy(traces, e, func(tr *gamesim.Trace) int64 { return tr.Cohort }, "cohort")
	case WholeProcess:
		byPlayer := map[int64][]*gamesim.Trace{}
		var players []int64
		for _, tr := range traces {
			if _, ok := byPlayer[tr.Player]; !ok {
				players = append(players, tr.Player)
			}
			byPlayer[tr.Player] = append(byPlayer[tr.Player], tr)
		}
		sort.Slice(players, func(a, b int) bool { return players[a] < players[b] })
		var all []Transition
		for _, p := range players {
			ts := byPlayer[p]
			sort.Slice(ts, func(a, b int) bool { return ts[a].Session < ts[b].Session })
			all = append(all, e.FromChain(ts)...)
		}
		return []Group{{Name: "whole-process", Transitions: all}}
	default: // Global
		var all []Transition
		for _, tr := range traces {
			all = append(all, e.FromTrace(tr)...)
		}
		return []Group{{Name: "global", Transitions: all}}
	}
}

func groupBy(traces []*gamesim.Trace, e *Extractor, key func(*gamesim.Trace) int64, kind string) []Group {
	m := map[int64][]Transition{}
	var keys []int64
	for _, tr := range traces {
		k := key(tr)
		if _, ok := m[k]; !ok {
			keys = append(keys, k)
		}
		m[k] = append(m[k], e.FromTrace(tr)...)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	out := make([]Group, 0, len(keys))
	for _, k := range keys {
		out = append(out, Group{Name: kind, Transitions: m[k]})
	}
	return out
}

// ToDataset converts transitions into an mlmodels dataset with the given
// class count (the profile's catalog size).
func ToDataset(ts []Transition, numClasses int) (*mlmodels.Dataset, error) {
	samples := make([]mlmodels.Sample, len(ts))
	for i, t := range ts {
		samples[i] = mlmodels.Sample{Features: t.Features, Label: t.Label}
	}
	ds, err := mlmodels.NewDataset(samples)
	if err != nil {
		return nil, err
	}
	if numClasses > ds.NumClasses {
		ds.NumClasses = numClasses
	}
	return ds, nil
}
