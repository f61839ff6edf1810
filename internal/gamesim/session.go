package gamesim

import (
	"fmt"
	"math"
	"math/rand"

	"cocg/internal/lazyrand"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// lagThreshold is the demand-satisfaction level below which gameplay itself
// slows down (missed inputs, stalled game logic) in addition to dropping
// frames.
const lagThreshold = 0.8

// Phase is the coarse run-time state of a session.
type Phase int

// Session phases. Loading covers initialization, runtime loading, and
// shutdown (Section IV-A1); Exec is normal player interaction.
const (
	PhaseLoading Phase = iota
	PhaseExec
	PhaseDone
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseLoading:
		return "loading"
	case PhaseExec:
		return "exec"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// plannedStage is one execution stage of a session's realized plan.
type plannedStage struct {
	stageType    int
	duration     simclock.Seconds // at full resource supply
	clusterOrder []int            // realized visiting order of the stage's clusters
}

// Session is one running game instance: a realized stage plan advanced one
// virtual second at a time. The platform asks for its Demand, decides a
// grant, and calls Step; the session reacts exactly as the paper's games do —
// execution stages drop frames when under-provisioned, loading stages
// stretch (Observation 4: loading progress is compute-bound, so reducing its
// supply "steals time" without harming interaction).
type Session struct {
	Spec      *GameSpec
	ScriptIdx int
	PlayerID  int64

	rng *rand.Rand
	// noiseSeed keys the stateless per-second demand jitter (see noise.go);
	// it is drawn once from the sequential RNG at construction.
	noiseSeed uint64
	plan      []plannedStage
	planIdx   int // next plan entry to execute once the current loading ends
	phase     Phase

	// Loading state: work is measured in full-supply seconds and counts down
	// so the remaining-work float stays exact under full supply (subtracting
	// 1.0 from a positive double is always exact; adding 1.0 toward a target
	// is not), which is what makes loading-completion events predictable.
	loadLeft     float64
	shutdownLoad bool // true when the current loading is the final shutdown

	// Execution state.
	execRemaining float64
	curStage      int
	curCluster    int
	segmentIdx    int     // which cluster segment of the current stage
	segmentLeft   float64 // seconds left in the current cluster segment
	segmentLen    float64

	// Transient event that is not a stage change (exercises the predictor's
	// rehearsal callback): a burst pushes demand toward a hotter cluster's
	// level, a dip briefly drops to loading-like demand (e.g. the player
	// opens a menu). Onsets follow a geometric countdown over eligible
	// execution seconds (drawn at construction and at each onset), so the
	// next onset second is known in advance instead of being a fresh
	// Bernoulli draw every second.
	spikeLeft      int
	spikeCountdown int
	spikeTarget    resources.Vector

	// Tick demand cache so Demand() and Step() agree within one tick.
	demandValid bool
	demand      resources.V4

	// Accounting.
	elapsed      simclock.Seconds
	execSeconds  simclock.Seconds
	loadSeconds  simclock.Seconds
	loadExtended float64 // extra loading seconds caused by throttling
	fpsSum       float64
	goodFPS      int // exec seconds with FPS >= 30
	degraded     int // exec seconds with satisfaction < 0.95
	lastFPS      float64
	lastSat      float64
	// fpsHist buckets execution-second frame rates in 4 FPS steps (the
	// last bucket absorbs everything above 240), enabling percentile QoS
	// reporting without retaining the full series.
	fpsHist [fpsBuckets + 1]int
}

// fpsBuckets is the number of 4-FPS histogram buckets below the overflow.
const fpsBuckets = 60

// NewSession realizes a session of the given script for one player. The seed
// determines every player-dependent choice (stage order, durations, cluster
// order, spikes), so identical seeds replay identical sessions.
func NewSession(spec *GameSpec, scriptIdx int, seed int64) (*Session, error) {
	return NewPlayerSession(spec, scriptIdx, seed, seed)
}

// NewPlayerSession realizes a session with the player-habit model split out:
// habitSeed drives the player's stable choices (the order in which they take
// on the script's tasks — the habit the paper's per-player training sets
// capture), while sessionSeed drives everything that varies between two
// sessions of the same player (durations, demand noise, spikes, and
// occasional deviations from habit).
func NewPlayerSession(spec *GameSpec, scriptIdx int, habitSeed, sessionSeed int64) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if scriptIdx < 0 || scriptIdx >= len(spec.Scripts) {
		return nil, fmt.Errorf("gamesim: %s has no script %d", spec.Name, scriptIdx)
	}
	s := &Session{
		Spec:      spec,
		ScriptIdx: scriptIdx,
		PlayerID:  habitSeed,
		rng:       rand.New(lazyrand.NewSource(sessionSeed)),
		phase:     PhaseLoading,
		curStage:  LoadingType,
	}
	s.plan = s.realizePlan(spec.Scripts[scriptIdx].Body, habitSeed)
	s.loadLeft = s.drawLoad(1)
	s.noiseSeed = s.rng.Uint64()
	if spec.SpikeRate > 0 {
		s.spikeCountdown = s.drawSpikeGap()
	}
	s.curCluster = LoadingCluster
	return s, nil
}

// realizePlan applies the category's user-influence model to the script's
// nominal body: habitual reordering and repeats (habit RNG), session-level
// deviations from habit, duration draws, and per-stage cluster visiting
// orders (session RNG). The habit RNG is built only by the categories that
// draw from it, and both generators are lazyrand sources: a session draws a
// few dozen values, and math/rand's own seeding fills a 607-word state — more
// than the rest of the construction — before the first one.
func (s *Session) realizePlan(body []int, habitSeed int64) []plannedStage {
	ui := s.Spec.Category.UserInfluence()
	order := append([]int(nil), body...)

	switch s.Spec.Category {
	case Mobile:
		habit := rand.New(lazyrand.NewSource(habitSeed))
		// Players habitually reorder their daily tasks: adjacent swaps after
		// the first entry (the login menu always comes first)...
		for i := 1; i < len(order)-1; i++ {
			if habit.Float64() < 0.35 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		// ...and occasionally deviate from their own habit within a session.
		for i := 1; i < len(order)-1; i++ {
			if s.rng.Float64() < 0.08 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
	case MMORPG:
		// Matches repeat their mid-game stages an unpredictable number of
		// times and occasionally swap adjacent phases. The repeat pattern is
		// driven by the habit RNG — players who queue together (a cohort in
		// the corpus generator) share it — with per-session swaps on top.
		habit := rand.New(lazyrand.NewSource(habitSeed))
		var expanded []int
		for _, t := range order {
			expanded = append(expanded, t)
			for habit.Float64() < 0.4*ui {
				expanded = append(expanded, t)
			}
		}
		order = expanded
		for i := 0; i < len(order)-1; i++ {
			if order[i] != order[i+1] && s.rng.Float64() < 0.08 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
	}

	plan := make([]plannedStage, 0, len(order))
	for _, t := range order {
		st := s.Spec.StageTypes[t]
		spread := st.DurJitter * (0.5 + ui)
		factor := math.Exp(s.rng.NormFloat64() * spread)
		dur := simclock.Seconds(math.Max(10, float64(st.MeanDur)*factor))
		co := append([]int(nil), st.Clusters...)
		s.rng.Shuffle(len(co), func(i, j int) { co[i], co[j] = co[j], co[i] })
		plan = append(plan, plannedStage{stageType: t, duration: dur, clusterOrder: co})
	}
	return plan
}

// drawLoad draws one loading duration in full-supply seconds, scaled (the
// shutdown load uses scale 0.5).
func (s *Session) drawLoad(scale float64) float64 {
	span := float64(s.Spec.LoadMax - s.Spec.LoadMin)
	return scale * (float64(s.Spec.LoadMin) + s.rng.Float64()*span)
}

// Phase returns the session's coarse state.
func (s *Session) Phase() Phase { return s.phase }

// Done reports whether the session has finished (including shutdown).
func (s *Session) Done() bool { return s.phase == PhaseDone }

// StageType returns the ground-truth stage type the session is in: the
// loading type while loading, otherwise the current execution stage type.
// Schedulers must not use it directly — they observe only resource vectors —
// but experiments use it to score detection and prediction.
func (s *Session) StageType() int {
	if s.phase == PhaseLoading {
		return LoadingType
	}
	return s.curStage
}

// Cluster returns the ground-truth frame cluster currently active.
func (s *Session) Cluster() int { return s.curCluster }

// PlanTypes returns the realized sequence of execution stage types, in order.
func (s *Session) PlanTypes() []int {
	out := make([]int, len(s.plan))
	for i, p := range s.plan {
		out[i] = p.stageType
	}
	return out
}

// Demand returns the resource demand for the current tick. It is stable
// within a tick: repeated calls before Step return the same vector. It runs
// once per session-second, so it is straight-line (docs/PERFORMANCE.md,
// "Vector arithmetic and the compiler"): the cluster read through a pointer,
// one demandNoise per dimension, the [0, 100] clamp on scalars, a V4 out.
//
//cocg:hot
func (s *Session) Demand() resources.V4 {
	if s.demandValid {
		return s.demand
	}
	var d resources.V4
	if s.phase != PhaseDone {
		c := &s.Spec.Clusters[s.curCluster]
		base := &c.Demand
		if s.phase == PhaseExec {
			s.spikeAdvance()
			if s.spikeLeft > 0 {
				base = &s.spikeTarget
			}
		}
		seed, t, jitter := s.noiseSeed, int64(s.elapsed), c.Jitter
		d = resources.V4{
			C0: clampPercent(base[0] + demandNoise(seed, t, 0)*jitter),
			C1: clampPercent(base[1] + demandNoise(seed, t, 1)*jitter),
			C2: clampPercent(base[2] + demandNoise(seed, t, 2)*jitter),
			C3: clampPercent(base[3] + demandNoise(seed, t, 3)*jitter),
		}
	}
	s.demand = d
	s.demandValid = true
	return d
}

// clampPercent is resources.Vector.Clamp(0, 100) on one component.
func clampPercent(x float64) float64 {
	if x > 100 {
		x = 100
	}
	if x < 0 {
		x = 0
	}
	return x
}

// drawSpikeGap draws the number of eligible (non-spiking) execution seconds
// before the next spike onset: geometric with the spec's per-second onset
// rate, so the distribution of onsets matches a per-second Bernoulli draw
// while the onset time itself is decided ahead of the seconds it spans.
func (s *Session) drawSpikeGap() int {
	p := s.Spec.SpikeRate
	if p >= 1 {
		return 0
	}
	k := math.Log1p(-s.rng.Float64()) / math.Log1p(-p)
	if !(k < 1<<30) { // NaN/Inf guard for u ~ 1
		return 1 << 30
	}
	return int(k)
}

// spikeAdvance starts a short demand anomaly that is not a stage change: a
// burst toward a hotter cluster's consumption level (a sudden on-screen
// event) or a dip to loading-like demand (the player idles in a menu). Both
// can fool a naive detector into believing a stage switch — exactly the
// misjudgments Fig. 9 (period three) and Fig. 10 (the three brief jumps)
// show the rehearsal callback correcting. Called once per execution-second
// demand evaluation; each eligible second ticks the geometric onset countdown
// down, and the onset itself draws the spike's shape plus the next countdown.
func (s *Session) spikeAdvance() {
	if s.spikeLeft > 0 || s.Spec.SpikeRate <= 0 {
		return
	}
	if s.spikeCountdown > 0 {
		s.spikeCountdown--
		return
	}
	if s.rng.Float64() < 0.6 {
		// Burst: push demand up by 15-30 points, resembling a hotter cluster.
		s.spikeLeft = 8 + s.rng.Intn(8)
		boost := 15 + s.rng.Float64()*15
		s.spikeTarget = s.Spec.Clusters[s.curCluster].Demand.
			Add(resources.New(boost*0.8, boost, boost*0.5, boost*0.3)).Clamp(0, 100)
	} else {
		// Dip: loading-like demand for 3-5 seconds — shorter than any real
		// loading stage (which always spans two detection frames), but long
		// enough to sometimes dominate one frame and fool the separator.
		s.spikeLeft = 3 + s.rng.Intn(3)
		s.spikeTarget = s.Spec.Clusters[LoadingCluster].Demand
	}
	s.spikeCountdown = s.drawSpikeGap()
}

// Step advances the session by one virtual second under the given grant.
// Execution stages always consume wall-clock time (an under-provisioned game
// drops frames, it does not pause), while loading progress scales with the
// satisfied fraction of the CPU demand, so throttled loading takes longer.
func (s *Session) Step(granted resources.V4) {
	demand := s.Demand() // ensure the tick's demand is realized
	s.demandValid = false
	if s.phase == PhaseDone {
		return
	}
	s.elapsed++
	sat := math.Min(1, granted.ClampNonNegative().MinRatio(demand))
	s.lastSat = sat

	switch s.phase {
	case PhaseLoading:
		s.loadSeconds++
		// Loading is CPU-bound: progress is the satisfied CPU fraction.
		cpuSat := 1.0
		if demand.C0 > 0 {
			cpuSat = math.Min(1, granted.C0/demand.C0)
			cpuSat = math.Max(0, cpuSat)
		}
		s.loadLeft -= cpuSat
		s.loadExtended += 1 - cpuSat
		s.lastFPS = 0
		if s.loadLeft <= 0 {
			s.finishLoading()
		}
	case PhaseExec:
		s.execSeconds++
		if s.spikeLeft > 0 {
			s.spikeLeft--
		}
		fps := s.Spec.EffectiveFPS() * sat
		s.lastFPS = fps
		s.fpsSum += fps
		bucket := int(fps / 4)
		if bucket > fpsBuckets {
			bucket = fpsBuckets
		}
		s.fpsHist[bucket]++
		if fps >= 30 {
			s.goodFPS++
		}
		if sat < 0.95 {
			s.degraded++
		}
		// Gameplay progress: mild throttling only drops frames, but severe
		// lag (under 80 % satisfaction) also slows the player and the game
		// logic down, stretching the stage in wall-clock time — and the
		// effect compounds as the frame rate collapses.
		progress := 1.0
		if sat < lagThreshold {
			r := sat / lagThreshold
			progress = r * r
		}
		s.execRemaining -= progress
		s.segmentLeft -= progress
		if s.execRemaining <= 0 {
			s.enterNextLoading()
		} else if s.segmentLeft <= 0 {
			s.advanceSegment()
		}
	}
}

// finishLoading transitions from a completed loading stage into the next
// planned execution stage, or marks the session done after shutdown.
func (s *Session) finishLoading() {
	if s.shutdownLoad || s.planIdx >= len(s.plan) {
		s.phase = PhaseDone
		s.curCluster = LoadingCluster
		return
	}
	p := s.plan[s.planIdx]
	s.planIdx++
	s.phase = PhaseExec
	s.curStage = p.stageType
	s.execRemaining = float64(p.duration)
	s.segmentIdx = 0
	s.segmentLen = float64(p.duration) / float64(len(p.clusterOrder))
	s.segmentLeft = s.segmentLen
	s.curCluster = p.clusterOrder[0]
}

// advanceSegment moves a multi-cluster stage to its next cluster segment.
func (s *Session) advanceSegment() {
	p := s.plan[s.planIdx-1]
	s.segmentIdx++
	if s.segmentIdx >= len(p.clusterOrder) {
		s.segmentIdx = len(p.clusterOrder) - 1 // hold the last segment
		s.segmentLeft = s.execRemaining
		return
	}
	s.curCluster = p.clusterOrder[s.segmentIdx]
	s.segmentLeft = s.segmentLen
}

// enterNextLoading transitions from a finished execution stage into loading.
func (s *Session) enterNextLoading() {
	s.phase = PhaseLoading
	s.curCluster = LoadingCluster
	s.spikeLeft = 0
	if s.planIdx >= len(s.plan) {
		s.shutdownLoad = true
		s.loadLeft = s.drawLoad(0.5)
	} else {
		s.loadLeft = s.drawLoad(1)
	}
	s.lastFPS = 0
}

// Elapsed returns the total virtual seconds the session has run.
func (s *Session) Elapsed() simclock.Seconds { return s.elapsed }

// ExecSeconds returns seconds spent in execution stages.
func (s *Session) ExecSeconds() simclock.Seconds { return s.execSeconds }

// LoadSeconds returns seconds spent in loading stages.
func (s *Session) LoadSeconds() simclock.Seconds { return s.loadSeconds }

// LoadExtended returns the extra loading seconds caused by throttled
// supply — the time the scheduler "stole" from this session.
func (s *Session) LoadExtended() float64 { return s.loadExtended }

// LastFPS returns the frame rate achieved in the most recent tick (0 while
// loading).
func (s *Session) LastFPS() float64 { return s.lastFPS }

// LastSatisfaction returns the fraction of the last tick's demand that was
// granted, in [0, 1].
func (s *Session) LastSatisfaction() float64 { return s.lastSat }

// AvgFPS returns the mean frame rate over all execution seconds so far.
func (s *Session) AvgFPS() float64 {
	if s.execSeconds == 0 {
		return 0
	}
	return s.fpsSum / float64(s.execSeconds)
}

// FPSRatio returns AvgFPS as a fraction of the game's best achievable frame
// rate — the Y axis of Fig. 13.
func (s *Session) FPSRatio() float64 { return s.AvgFPS() / s.Spec.EffectiveFPS() }

// GoodFPSFraction returns the fraction of execution seconds at or above the
// 30 FPS QoS floor.
func (s *Session) GoodFPSFraction() float64 {
	if s.execSeconds == 0 {
		return 1
	}
	return float64(s.goodFPS) / float64(s.execSeconds)
}

// FPSPercentile returns the p-th percentile (0-100) of per-second frame
// rates over execution time so far, at 4 FPS resolution. Low percentiles
// expose stutter that the mean hides.
func (s *Session) FPSPercentile(p float64) float64 {
	total := int(s.execSeconds)
	if total == 0 {
		return 0
	}
	target := int(p / 100 * float64(total))
	if target >= total {
		target = total - 1
	}
	cum := 0
	for b, n := range s.fpsHist {
		cum += n
		if cum > target {
			return float64(b) * 4
		}
	}
	return float64(fpsBuckets) * 4
}

// DegradedFraction returns the fraction of execution seconds with less than
// 95 % of demand satisfied; the paper's operators accept up to 5 % of total
// time degraded (Section IV-D).
func (s *Session) DegradedFraction() float64 {
	if s.execSeconds == 0 {
		return 0
	}
	return float64(s.degraded) / float64(s.execSeconds)
}
