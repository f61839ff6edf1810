// Package core is the CoCG system facade: it runs the one-time offline
// pipeline for a set of games (profiling corpus → frame clustering → stage
// catalog → predictor training) and wires the resulting bundles into
// schedulable clusters under any of the evaluated policies.
package core

import (
	"fmt"
	"sort"
	"sync"

	"cocg/internal/baselines"
	"cocg/internal/gamesim"
	"cocg/internal/parallel"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/profiler"
	"cocg/internal/scheduler"
	"cocg/internal/workload"
)

// PolicyKind selects a co-location scheme.
type PolicyKind int

// The evaluated schemes: the paper's system and its three comparison points.
const (
	PolicyCoCG PolicyKind = iota
	PolicyVBP
	PolicyGAugur
	PolicyReactive
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case PolicyCoCG:
		return "CoCG"
	case PolicyVBP:
		return "VBP"
	case PolicyGAugur:
		return "GAugur"
	case PolicyReactive:
		return "Reactive"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// AllPolicies lists every scheme in evaluation order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{PolicyVBP, PolicyGAugur, PolicyReactive, PolicyCoCG}
}

// TrainOptions shapes the offline pass.
type TrainOptions struct {
	// Players and SessionsPerPlayer size the profiling corpus per game;
	// zero values give the predictor package defaults.
	Players           int
	SessionsPerPlayer int
	Seed              int64
	// ForceGlobal disables the category-aware training-set selection
	// (ablation).
	ForceGlobal bool
	// SchedulerConfig tunes the CoCG policy built from this system.
	SchedulerConfig scheduler.Config
	// Workers bounds how many games train at once; <= 0 means GOMAXPROCS.
	// Each game trains on one goroutine, so this is the offline pass's
	// whole fan-out. The trained system does not depend on it.
	Workers int
}

// System is a fully trained CoCG deployment for a set of games.
type System struct {
	Bundles map[string]*predictor.Trained
	opts    TrainOptions
}

// Train runs the complete offline pipeline for every game. Games are
// independent, so they train in parallel under a bounded worker group, one
// game per goroutine; results are deterministic because each game's corpus
// and models derive only from the shared seed, never from the worker count.
// A game named twice is an error, reported before any training starts.
func Train(specs []*gamesim.GameSpec, opts TrainOptions) (*System, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no games to train")
	}
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if seen[spec.Name] {
			return nil, fmt.Errorf("core: game %s listed twice", spec.Name)
		}
		seen[spec.Name] = true
	}
	s := &System{Bundles: map[string]*predictor.Trained{}, opts: opts}
	var mu sync.Mutex
	g := parallel.NewGroup(opts.Workers)
	for _, spec := range specs {
		spec := spec
		g.Go(func() error {
			b, err := predictor.TrainForGame(spec, predictor.TrainConfig{
				Players:           opts.Players,
				SessionsPerPlayer: opts.SessionsPerPlayer,
				Seed:              opts.Seed,
				ForceGlobal:       opts.ForceGlobal,
			})
			if err != nil {
				return fmt.Errorf("core: training %s: %w", spec.Name, err)
			}
			mu.Lock()
			s.Bundles[spec.Name] = b
			mu.Unlock()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return s, nil
}

// Games lists the trained game names, sorted.
func (s *System) Games() []string {
	out := make([]string, 0, len(s.Bundles))
	for g := range s.Bundles {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Bundle returns a game's training bundle.
func (s *System) Bundle(game string) (*predictor.Trained, bool) {
	b, ok := s.Bundles[game]
	return b, ok
}

// Profiles returns the game profiles in sorted-name order.
func (s *System) Profiles() []*profiler.Profile {
	var out []*profiler.Profile
	for _, g := range s.Games() {
		out = append(out, s.Bundles[g].Profile)
	}
	return out
}

// bundles returns the training bundles in sorted-name order.
func (s *System) bundles() []*predictor.Trained {
	var out []*predictor.Trained
	for _, g := range s.Games() {
		out = append(out, s.Bundles[g])
	}
	return out
}

// Policy instantiates one of the evaluated schemes over this system's
// offline artifacts.
func (s *System) Policy(kind PolicyKind) platform.Policy {
	switch kind {
	case PolicyVBP:
		return baselines.NewVBP(s.Profiles())
	case PolicyGAugur:
		return baselines.NewGAugur(s.Profiles())
	case PolicyReactive:
		return baselines.NewReactive(s.Profiles())
	default:
		return scheduler.New(s.bundles(), s.opts.SchedulerConfig)
	}
}

// NewCluster builds an n-server cluster under the given scheme.
func (s *System) NewCluster(n int, kind PolicyKind) *platform.Cluster {
	return platform.NewCluster(n, s.Policy(kind))
}

// HabitPools returns the returning-player habit seeds per game, for workload
// generation.
func (s *System) HabitPools() map[string][]int64 {
	out := map[string][]int64{}
	for g, b := range s.Bundles {
		out[g] = b.Pool()
	}
	return out
}

// Generator builds a workload generator over the system's player pools.
func (s *System) Generator(seed int64) *workload.Generator {
	return workload.NewGenerator(s.HabitPools(), seed)
}
