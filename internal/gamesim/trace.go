package gamesim

import (
	"fmt"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// SecondSample is one virtual second of an offline profiling run at full
// resource supply. Only the single-session recorders keep them (see
// Trace.Seconds).
type SecondSample struct {
	T         simclock.Seconds
	Demand    resources.Vector
	StageType int // ground truth
	Cluster   int // ground truth
	Loading   bool
}

// FrameSample aggregates FrameLen (5) seconds into one frame — the unit the
// paper clusters (Section IV-A2).
type FrameSample struct {
	Frame     int
	Demand    resources.Vector // mean demand over the frame
	StageType int              // ground-truth majority stage type
	Cluster   int              // ground-truth majority cluster
	Loading   bool             // ground truth: majority of seconds loading
}

// StageVisit is one contiguous ground-truth stage occurrence in a trace.
type StageVisit struct {
	Type       int
	StartFrame int // inclusive
	EndFrame   int // exclusive
	Loading    bool
}

// Trace is the full observable record of one profiling session.
type Trace struct {
	Game    string
	Script  int
	Player  int64 // player identity, stable across sessions
	Cohort  int64 // players who queue together (MMORPG sample packing)
	Habit   int64 // the habit seed the session was realized with
	Session int64 // session seed: distinguishes replays by the same player
	// Duration is how many virtual seconds the session ran; 0 for a trace
	// loaded from frames alone (tracefile).
	Duration simclock.Seconds
	// Seconds is the per-second record. Record and RecordPlayer keep it for
	// callers that replay a session second by second; the corpus recorders
	// fold each second into its frame and keep none.
	Seconds []SecondSample
	Frames  []FrameSample
	Visits  []StageVisit
}

// FrameVectors returns just the frame demand vectors, the clusterer's input.
func (t *Trace) FrameVectors() []resources.Vector {
	out := make([]resources.Vector, len(t.Frames))
	for i, f := range t.Frames {
		out[i] = f.Demand
	}
	return out
}

// ExecVisits returns the non-loading stage visits in order.
func (t *Trace) ExecVisits() []StageVisit {
	var out []StageVisit
	for _, v := range t.Visits {
		if !v.Loading {
			out = append(out, v)
		}
	}
	return out
}

// Record runs a full session of spec's script at unconstrained supply and
// returns its trace. This is the offline profiling pass of Section IV-A: the
// pre-experiment the paper performs once per game per platform.
func Record(spec *GameSpec, scriptIdx int, seed int64) (*Trace, error) {
	return RecordPlayer(spec, scriptIdx, seed, seed)
}

// RecordPlayer records one session of a specific player (habit seed) with a
// specific session seed, at unconstrained supply.
func RecordPlayer(spec *GameSpec, scriptIdx int, habitSeed, sessionSeed int64) (*Trace, error) {
	return record(spec, scriptIdx, habitSeed, sessionSeed, true)
}

// record runs one session at unconstrained supply, folding each second into
// its 5-second frame as it goes; keepSeconds also keeps the per-second
// samples.
func record(spec *GameSpec, scriptIdx int, habitSeed, sessionSeed int64, keepSeconds bool) (*Trace, error) {
	sess, err := NewPlayerSession(spec, scriptIdx, habitSeed, sessionSeed)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Game: spec.Name, Script: scriptIdx, Player: habitSeed, Habit: habitSeed, Session: sessionSeed}
	var clk simclock.Clock
	var fold frameFold
	const maxTicks = int(4 * simclock.Hour) // safety bound; no script runs this long
	for i := 0; i < maxTicks && !sess.Done(); i++ {
		d, stage, cl, loading := sess.Demand(), sess.StageType(), sess.Cluster(), sess.Phase() == PhaseLoading
		if keepSeconds {
			tr.Seconds = append(tr.Seconds, SecondSample{T: clk.Now(), Demand: d.Vector(), StageType: stage, Cluster: cl, Loading: loading})
		}
		if fold.add(d, stage, cl, loading) {
			tr.Frames = append(tr.Frames, fold.frame(len(tr.Frames)))
		}
		sess.Step(resources.FullServer.Load())
		clk.Tick()
	}
	if !sess.Done() {
		return nil, fmt.Errorf("gamesim: %s script %d did not finish within %s", spec.Name, scriptIdx, simclock.Seconds(maxTicks))
	}
	if fold.n > 0 {
		tr.Frames = append(tr.Frames, fold.frame(len(tr.Frames)))
	}
	tr.Duration = clk.Now()
	tr.Visits = Visits(tr.Frames)
	return tr, nil
}

// frameFold accumulates the seconds of one frame as they are recorded.
type frameFold struct {
	sum      resources.Vector
	n        int
	loading  int
	types    [simclock.FrameLen]int
	clusters [simclock.FrameLen]int
}

// add folds one second in and reports whether the frame is now full.
func (f *frameFold) add(d resources.V4, stage, cl int, loading bool) bool {
	f.sum.Store(f.sum.Load().Add(d))
	f.types[f.n], f.clusters[f.n] = stage, cl
	if loading {
		f.loading++
	}
	f.n++
	return f.n == int(simclock.FrameLen)
}

// frame closes the fold into frame number idx, labeled with its majority
// ground-truth stage and cluster, and resets it.
func (f *frameFold) frame(idx int) FrameSample {
	out := FrameSample{
		Frame:     idx,
		Demand:    f.sum.Scale(1 / float64(f.n)),
		StageType: majority(f.types[:f.n]),
		Cluster:   majority(f.clusters[:f.n]),
		Loading:   f.loading*2 > f.n,
	}
	*f = frameFold{}
	return out
}

// majority returns the most frequent value, the smallest among ties.
func majority(vals []int) int {
	best, bestN := 0, -1
	for _, v := range vals {
		n := 0
		for _, w := range vals {
			if w == v {
				n++
			}
		}
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// Visits groups consecutive frames with the same ground-truth stage type
// and loading flag into stage visits.
func Visits(frames []FrameSample) []StageVisit {
	var visits []StageVisit
	for i := 0; i < len(frames); {
		j := i
		for j < len(frames) && frames[j].StageType == frames[i].StageType && frames[j].Loading == frames[i].Loading {
			j++
		}
		visits = append(visits, StageVisit{
			Type:       frames[i].StageType,
			StartFrame: i,
			EndFrame:   j,
			Loading:    frames[i].Loading,
		})
		i = j
	}
	return visits
}

// RecordCorpus records traces for every script of the game across several
// simulated players; this is the training corpus generator that stands in
// for the paper's Alibaba-cloud logs plus laboratory replays.
func RecordCorpus(spec *GameSpec, playersPerScript int, seed int64) ([]*Trace, error) {
	var out []*Trace
	for si := range spec.Scripts {
		for p := 0; p < playersPerScript; p++ {
			s := seed + int64(si*10_000+p)
			tr, err := record(spec, si, s, s, false)
			if err != nil {
				return nil, err
			}
			out = append(out, tr)
		}
	}
	return out, nil
}

// CorpusConfig shapes a player-structured corpus.
type CorpusConfig struct {
	Players           int   // distinct players (habit seeds)
	SessionsPerPlayer int   // replays per player
	Seed              int64 // base seed
}

// cohortSize is how many players an MMORPG cohort groups.
const cohortSize = 4

// RecordPlayerCorpus records a player-structured corpus: each player keeps a
// stable habit across SessionsPerPlayer sessions, scripts are drawn by the
// player's habit for mobile games (a daily routine) and per-session for the
// rest, and MMORPG players are grouped into cohorts whose members share
// match dynamics. It generates the data the four training-set selection
// strategies of Section IV-B1 operate on.
func RecordPlayerCorpus(spec *GameSpec, cfg CorpusConfig) ([]*Trace, error) {
	if cfg.Players < 1 || cfg.SessionsPerPlayer < 1 {
		return nil, fmt.Errorf("gamesim: corpus needs at least one player and session")
	}
	var out []*Trace
	for p := 0; p < cfg.Players; p++ {
		habit := cfg.Seed + int64(p)*1_000_003
		cohort := int64(p / cohortSize)
		if spec.Category == MMORPG {
			// Queueing together means sharing match dynamics: cohort members
			// use the cohort's habit seed.
			habit = cfg.Seed + cohort*1_000_003
		}
		for s := 0; s < cfg.SessionsPerPlayer; s++ {
			sessSeed := cfg.Seed + int64(p)*7919 + int64(s)*104_729 + 1
			script := int((uint64(habit) ^ uint64(s)*0x9e3779b9) % uint64(len(spec.Scripts)))
			switch spec.Category {
			case Mobile:
				// A mobile player's daily routine: the habit picks the script.
				script = int(uint64(habit) % uint64(len(spec.Scripts)))
			case Console:
				// Console players progress through the campaign: session s
				// continues where the previous one stopped, which is what
				// the whole-process sample chaining captures.
				script = s % len(spec.Scripts)
			}
			tr, err := record(spec, script, habit, sessSeed, false)
			if err != nil {
				return nil, err
			}
			tr.Player = cfg.Seed + int64(p)*1_000_003 // player identity, even in cohorts
			tr.Cohort = cohort
			tr.Habit = habit
			out = append(out, tr)
		}
	}
	return out, nil
}
