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
	req  resources.Vector
	hard bool
}

func (f *flatController) Tick(resources.Vector) resources.Vector { return f.req }
func (f *flatController) Loading() bool                          { return false }
func (f *flatController) HardCapped() bool                       { return f.hard }

// --- VBP ---

// VBP is Vector Bin Packing (Section V-B2): each game is assumed to run
// normally at 90 % of its maximum consumption, and a game is assigned to a
// server only when the remaining capacity exceeds that flat peak.
type VBP struct {
	profiles profiles
}

// vbpFactor is the fraction of peak VBP reserves; the paper uses 0.9.
const vbpFactor = 0.9

// NewVBP builds the VBP policy over the games' offline profiles.
func NewVBP(ps []*profiler.Profile) *VBP {
	return &VBP{profiles: toProfiles(ps)}
}

func (v *VBP) reservation(game string) (resources.Vector, bool) {
	p, ok := v.profiles[game]
	if !ok {
		return resources.Zero, false
	}
	return p.PeakDemand().Scale(vbpFactor), true
}

// Score implements platform.Policy: a game joins a server only when the
// remaining capacity covers its 90 %-of-peak reservation, on the first server
// where it does (every admitting server scores 0). VBP reservations are
// admission-time vectors, not runtime caps.
func (v *VBP) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	res, ok := v.reservation(spec.Name)
	if !ok {
		return 0, false
	}
	var reserved resources.Vector
	for _, h := range srv.Hosted {
		r, ok := v.reservation(h.Spec.Name)
		if !ok {
			r = h.Request
		}
		reserved = reserved.Add(r)
	}
	return 0, reserved.Add(res).Fits(srv.Capacity)
}

// NewController implements platform.Policy: at runtime a VBP game may use up
// to its full profiled peak (the reservation constrains packing, not
// execution).
func (v *VBP) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	p, ok := v.profiles[spec.Name]
	if !ok {
		return nil, fmt.Errorf("baselines: no profile for %s", spec.Name)
	}
	return &flatController{req: p.PeakDemand().Scale(1.1).Clamp(0, 100)}, nil
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
}

const (
	// gaugurMargin scales the mean consumption into the fixed limit; 1.05
	// reproduces the reported behavior (covers typical stages, not peaks).
	gaugurMargin = 1.05
	// gaugurMaxGames is the pairwise co-location bound of the original system.
	gaugurMaxGames = 2
	// gaugurPeakTolerance is the statistical-multiplexing optimism of GAugur's
	// interference model: a pair co-locates when the sum of peaks stays
	// within gaugurPeakTolerance × capacity. Heavier pairs are predicted to
	// interfere unacceptably and are refused (they run individually).
	gaugurPeakTolerance = 1.15
)

// NewGAugur builds the GAugur policy over the games' offline profiles.
func NewGAugur(ps []*profiler.Profile) *GAugur {
	return &GAugur{profiles: toProfiles(ps)}
}

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
	return weighted.Scale(gaugurMargin/frames).Clamp(0, 100), true
}

// Score implements platform.Policy: at most two games per server, the fixed
// limits must fit together, and the interference model must predict the
// pair acceptable — the sum of profiled peaks within 1.15 × capacity. Without
// stage awareness the model cannot tell when peaks would coincide, so it
// refuses heavy pairs outright (the paper: for DOTA2 + Devil May Cry "other
// solutions can only be executed individually"). Placement is first fit:
// every admitting server scores 0.
func (g *GAugur) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	if srv.NumHosted() >= gaugurMaxGames {
		return 0, false
	}
	lim, ok := g.limit(spec.Name)
	if !ok {
		return 0, false
	}
	p := g.profiles[spec.Name]
	peaks := p.PeakDemand()
	var limits resources.Vector
	for _, h := range srv.Hosted {
		hp, ok := g.profiles[h.Spec.Name]
		if !ok {
			return 0, false
		}
		peaks = peaks.Add(hp.PeakDemand())
		limits = limits.Add(h.Request)
	}
	if !peaks.Fits(srv.Capacity.Scale(gaugurPeakTolerance)) {
		return 0, false
	}
	return 0, limits.Add(lim).Fits(srv.Capacity)
}

// NewController implements platform.Policy.
func (g *GAugur) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	lim, ok := g.limit(spec.Name)
	if !ok {
		return nil, fmt.Errorf("baselines: no profile for %s", spec.Name)
	}
	return &flatController{req: lim, hard: true}, nil
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
	// admitReq is each game's duration-weighted mean footprint, scaled by
	// reactiveScale: what Score adds to a server's requests.
	admitReq map[string]resources.Vector
}

// reactiveScale and reactiveAbs pad the measured frame into the next request.
const (
	reactiveScale = 1.2
	reactiveAbs   = 3
)

// NewReactive builds the reactive policy over the games' offline profiles.
func NewReactive(ps []*profiler.Profile) *Reactive {
	r := &Reactive{profiles: toProfiles(ps), admitReq: make(map[string]resources.Vector, len(ps))}
	for _, p := range ps {
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
		r.admitReq[p.Game] = mean.Scale(reactiveScale)
	}
	return r
}

// Score implements platform.Policy: current requests plus the newcomer's
// mean consumption must fit (it cannot see the future, so it bets on means).
// Placement is first fit: every admitting server scores 0.
func (r *Reactive) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	req, ok := r.admitReq[spec.Name]
	if !ok {
		return 0, false
	}
	return 0, srv.RequestTotal().Add(req.Load()).Fits(srv.Capacity.Load())
}

// reactiveController re-provisions to each completed frame's measurement.
type reactiveController struct {
	p       *profiler.Profile
	sampler telemetry.Sampler
	req     resources.Vector
	loading bool
}

//cocg:hot
func (c *reactiveController) Tick(util resources.Vector) resources.Vector {
	if frame, ok := c.sampler.Observe(util.Load()); ok {
		c.loading = c.p.IsLoadingFrame(frame.Vector())
		c.req = frame.Vector().Scale(reactiveScale).Add(resources.Uniform(reactiveAbs)).Clamp(0, 100)
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
		p:   p,
		req: p.PeakDemand(), // safe until the first frame lands
	}, nil
}

// Regulate implements platform.Policy; the reactive scheme adjusts per game
// only.
func (r *Reactive) Regulate(*platform.Server) {}
