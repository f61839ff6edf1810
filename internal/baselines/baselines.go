// Package baselines implements the schemes CoCG is evaluated against in
// Section V: Vector Bin Packing (VBP), GAugur-style pairwise profiling with
// fixed limits, and the paper's own "improved version" — a stage-aware but
// prediction-free reactive allocator.
package baselines

import (
	"fmt"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/profiler"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/telemetry"
)

// profiles maps game names to their offline profiles; every baseline had
// access to the same profiling pass in the paper's evaluation.
type profiles map[string]*profiler.Profile

func toProfiles(ps []*profiler.Profile) profiles {
	m := make(profiles, len(ps))
	for _, p := range ps {
		m[p.Game] = p
	}
	return m
}

// flatController requests a constant vector forever — the agent of every
// scheme that ignores stages. When hard, the request is a fixed partition
// (GAugur's limits) that never receives work-conserving spillover; when
// soft, it is an admission-time reservation only (VBP).
type flatController struct {
	name string
	req  resources.Vector
	hard bool
}

func (f *flatController) Name() string                           { return f.name }
func (f *flatController) Tick(resources.Vector) resources.Vector { return f.req }
func (f *flatController) Loading() bool                          { return false }
func (f *flatController) HardCapped() bool                       { return f.hard }

// --- VBP ---

// VBP is Vector Bin Packing (Section V-B2): each game is assumed to run
// normally at 90 % of its maximum consumption, and a game is assigned to a
// server only when the remaining capacity exceeds that flat peak.
type VBP struct {
	profiles profiles
	// Factor is the fraction of peak reserved; the paper uses 0.9.
	Factor float64
}

// NewVBP builds the VBP policy over the games' offline profiles.
func NewVBP(ps []*profiler.Profile) *VBP {
	return &VBP{profiles: toProfiles(ps), Factor: 0.9}
}

// Name implements platform.Policy.
func (v *VBP) Name() string { return "VBP" }

func (v *VBP) reservation(game string) (resources.Vector, bool) {
	p, ok := v.profiles[game]
	if !ok {
		return resources.Zero, false
	}
	return p.PeakDemand().Scale(v.Factor), true
}

// Admit implements platform.Policy: a game joins a server only when the
// remaining capacity covers its 90 %-of-peak reservation. VBP reservations
// are admission-time vectors, not runtime caps.
func (v *VBP) Admit(srv *platform.Server, spec *gamesim.GameSpec, habit int64) bool {
	res, ok := v.reservation(spec.Name)
	if !ok {
		return false
	}
	var reserved resources.Vector
	for _, h := range srv.Hosted {
		r, ok := v.reservation(h.Spec.Name)
		if !ok {
			r = h.Request
		}
		reserved = reserved.Add(r)
	}
	return reserved.Add(res).Fits(srv.Capacity)
}

// NewController implements platform.Policy: at runtime a VBP game may use up
// to its full profiled peak (the reservation constrains packing, not
// execution).
func (v *VBP) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	p, ok := v.profiles[spec.Name]
	if !ok {
		return nil, fmt.Errorf("baselines: no profile for %s", spec.Name)
	}
	return &flatController{name: "VBP", req: p.PeakDemand().Scale(1.1).Clamp(0, 100)}, nil
}

// Regulate implements platform.Policy; VBP has no runtime regulation.
func (v *VBP) Regulate(*platform.Server) {}

// --- GAugur ---

// GAugur reproduces the baseline of Li et al. (HPDC'19) as the paper uses
// it: offline profiling predicts whether two games can be co-located, and
// once placed, each game gets a fixed resource limit for its whole lifetime.
// The fixed limits are sized from mean consumption, which is why its FPS
// suffers at stage peaks (Fig. 13).
type GAugur struct {
	profiles profiles
	// MarginFactor scales the mean consumption into the fixed limit; 1.05
	// reproduces the reported behavior (covers typical stages, not peaks).
	MarginFactor float64
	// MaxGames is the pairwise co-location bound of the original system.
	MaxGames int
	// PeakTolerance is the statistical-multiplexing optimism of GAugur's
	// interference model: a pair co-locates when the sum of peaks stays
	// within PeakTolerance × capacity. Heavier pairs are predicted to
	// interfere unacceptably and are refused (they run individually).
	PeakTolerance float64
}

// NewGAugur builds the GAugur policy over the games' offline profiles.
func NewGAugur(ps []*profiler.Profile) *GAugur {
	return &GAugur{profiles: toProfiles(ps), MarginFactor: 1.05, MaxGames: 2, PeakTolerance: 1.15}
}

// Name implements platform.Policy.
func (g *GAugur) Name() string { return "GAugur" }

// limit is the fixed per-session allocation GAugur's performance model
// assigns: scaled mean consumption over the whole game.
func (g *GAugur) limit(game string) (resources.Vector, bool) {
	p, ok := g.profiles[game]
	if !ok {
		return resources.Zero, false
	}
	var weighted resources.Vector
	var frames float64
	for _, s := range p.Catalog {
		w := s.MeanDurFrames * float64(s.Count)
		weighted = weighted.Add(s.Mean.Scale(w))
		frames += w
	}
	if frames == 0 {
		return p.PeakDemand(), true
	}
	return weighted.Scale(g.MarginFactor/frames).Clamp(0, 100), true
}

// Admit implements platform.Policy: at most MaxGames per server, the fixed
// limits must fit together, and the interference model must predict the
// pair acceptable — the sum of profiled peaks within PeakTolerance ×
// capacity. Without stage awareness the model cannot tell when peaks would
// coincide, so it refuses heavy pairs outright (the paper: for DOTA2 +
// Devil May Cry "other solutions can only be executed individually").
func (g *GAugur) Admit(srv *platform.Server, spec *gamesim.GameSpec, habit int64) bool {
	if srv.NumHosted() >= g.MaxGames {
		return false
	}
	lim, ok := g.limit(spec.Name)
	if !ok {
		return false
	}
	p := g.profiles[spec.Name]
	peaks := p.PeakDemand()
	var limits resources.Vector
	for _, h := range srv.Hosted {
		hp, ok := g.profiles[h.Spec.Name]
		if !ok {
			return false
		}
		peaks = peaks.Add(hp.PeakDemand())
		limits = limits.Add(h.Request)
	}
	if !peaks.Fits(srv.Capacity.Scale(g.PeakTolerance)) {
		return false
	}
	return limits.Add(lim).Fits(srv.Capacity)
}

// NewController implements platform.Policy.
func (g *GAugur) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	lim, ok := g.limit(spec.Name)
	if !ok {
		return nil, fmt.Errorf("baselines: no profile for %s", spec.Name)
	}
	return &flatController{name: "GAugur", req: lim, hard: true}, nil
}

// Regulate implements platform.Policy; GAugur's limits are fixed by design.
func (g *GAugur) Regulate(*platform.Server) {}

// --- Reactive (the paper's "improved version") ---

// Reactive perceives that games move through stages but does not predict:
// every frame it re-provisions to the just-measured consumption plus a
// margin. It trails every stage transition by one detection interval, which
// is exactly the gap prediction closes.
type Reactive struct {
	profiles profiles
	// MarginScale/MarginAbs pad the measured frame into the next request.
	MarginScale float64
	MarginAbs   float64
}

// NewReactive builds the reactive policy over the games' offline profiles.
func NewReactive(ps []*profiler.Profile) *Reactive {
	return &Reactive{profiles: toProfiles(ps), MarginScale: 1.2, MarginAbs: 3}
}

// Name implements platform.Policy.
func (r *Reactive) Name() string { return "Reactive" }

// Admit implements platform.Policy: current requests plus the newcomer's
// mean consumption must fit (it cannot see the future, so it bets on means).
func (r *Reactive) Admit(srv *platform.Server, spec *gamesim.GameSpec, habit int64) bool {
	p, ok := r.profiles[spec.Name]
	if !ok {
		return false
	}
	var mean resources.Vector
	var n float64
	for _, s := range p.Catalog {
		w := s.MeanDurFrames * float64(s.Count)
		mean = mean.Add(s.Mean.Scale(w))
		n += w
	}
	if n > 0 {
		mean = mean.Scale(1 / n)
	}
	return srv.RequestTotal().Add(mean.Scale(r.MarginScale)).Fits(srv.Capacity)
}

// reactiveController re-provisions to each completed frame's measurement.
type reactiveController struct {
	p       *profiler.Profile
	sampler *telemetry.Sampler
	req     resources.Vector
	loading bool
	scale   float64
	abs     float64
}

func (c *reactiveController) Name() string { return "Reactive" }

func (c *reactiveController) Tick(util resources.Vector) resources.Vector {
	if frame, ok := c.sampler.Observe(util); ok {
		c.loading = c.p.IsLoadingFrame(frame)
		c.req = frame.Scale(c.scale).Add(resources.Uniform(c.abs)).Clamp(0, 100)
	}
	return c.req
}

func (c *reactiveController) Loading() bool { return c.loading }

// NewController implements platform.Policy.
func (r *Reactive) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	p, ok := r.profiles[spec.Name]
	if !ok {
		return nil, fmt.Errorf("baselines: no profile for %s", spec.Name)
	}
	return &reactiveController{
		p:       p,
		sampler: telemetry.NewSampler(0, habit),
		req:     p.PeakDemand(), // safe until the first frame lands
		scale:   r.MarginScale,
		abs:     r.MarginAbs,
	}, nil
}

// Regulate implements platform.Policy; the reactive scheme adjusts per game
// only.
func (r *Reactive) Regulate(*platform.Server) {}

// MaxPeak is a helper: the flat always-peak allocation a stage-unaware
// operator reserves for a game (the "modest way" baseline of Section V-A,
// used as the reference line in Fig. 10).
func MaxPeak(p *profiler.Profile) resources.Vector { return p.PeakDemand() }

// LoadingLatencyRange reports the observed loading durations for a game, in
// seconds (Fig. 12's loading bars).
func LoadingLatencyRange(p *profiler.Profile) (mean simclock.Seconds, ok bool) {
	s, found := p.Stage(profiler.LoadingStageID)
	if !found || s.Count == 0 {
		return 0, false
	}
	return simclock.Seconds(s.MeanDurFrames * float64(simclock.FrameLen)), true
}
