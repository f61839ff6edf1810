package gamesim

import (
	"math/rand"
	"reflect"
	"testing"

	"cocg/internal/resources"
)

// normalized strips the fields that are deliberately allowed to differ
// between the bulk and per-second paths: the RNG pointer (compared
// separately), and the demand cache, which is semantically invisible while
// demandValid is false — the fast path never materializes a demand vector.
func normalized(s *Session) Session {
	c := *s
	c.rng = nil
	c.demand = resources.V4{}
	c.demandValid = false
	return c
}

// requireSameState fails unless the two sessions are in bitwise-identical
// states, including the sequential RNG.
func requireSameState(t *testing.T, ref, bulk *Session, ctx string) {
	t.Helper()
	if ref.demandValid || bulk.demandValid {
		t.Fatalf("%s: demand cache left valid (ref=%v bulk=%v)", ctx, ref.demandValid, bulk.demandValid)
	}
	a, b := normalized(ref), normalized(bulk)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: state diverged:\nref:  %+v\nbulk: %+v", ctx, a, b)
	}
	if !reflect.DeepEqual(ref.rng, bulk.rng) {
		t.Fatalf("%s: RNG state diverged", ctx)
	}
}

// grantFor produces the chunk's grant under one of several adversarial
// patterns. The pattern RNG is shared by reference and bulk runs, so both
// see identical grants.
func grantFor(pattern int, s *Session, prng *rand.Rand) resources.Vector {
	switch pattern % 5 {
	case 0: // full supply: the pure fast path
		return resources.FullServer
	case 1: // exactly the envelope: the tightest certified grant
		return s.DemandEnvelope()
	case 2: // envelope minus epsilon on one dim: forces the Step fallback
		g := s.DemandEnvelope()
		g[prng.Intn(len(g))] -= 0.5
		return g
	case 3: // starvation: exercises stretched loading and zero progress
		return resources.Zero
	default: // random, including negative components
		var g resources.Vector
		for d := range g {
			g[d] = prng.Float64()*130 - 10
		}
		return g
	}
}

// TestStepBulkMatchesStep is the core equivalence property: StepBulk(g, n)
// leaves the session in the same bitwise state as n repeated Step(g) calls —
// across every game (spiky and not), every script, loading/segment/stage
// transitions, spike onsets, and contended and uncontended grants.
func TestStepBulkMatchesStep(t *testing.T) {
	for _, spec := range AllGames() {
		for script := range spec.Scripts {
			for seed := int64(1); seed <= 4; seed++ {
				ref, err := NewPlayerSession(spec, script, seed*11, seed)
				if err != nil {
					t.Fatal(err)
				}
				bulk, err := NewPlayerSession(spec, script, seed*11, seed)
				if err != nil {
					t.Fatal(err)
				}
				prng := rand.New(rand.NewSource(seed * 97))
				const maxSteps = 40_000
				steps := 0
				for chunk := 0; !ref.Done() && steps < maxSteps; chunk++ {
					g := grantFor(chunk, ref, prng)
					n := 1 + prng.Intn(137)
					for i := 0; i < n; i++ {
						ref.Step(g.Load())
					}
					consumed := bulk.StepBulk(g, n)
					if consumed > n {
						t.Fatalf("%s script %d seed %d: consumed %d > n %d", spec.Name, script, seed, consumed, n)
					}
					if consumed < n && !bulk.Done() {
						t.Fatalf("%s script %d seed %d: short consume %d/%d on live session", spec.Name, script, seed, consumed, n)
					}
					steps += n
					requireSameState(t, ref, bulk, spec.Name)
				}
			}
		}
	}
}

// TestStepBulkCrossesSpikeOnset pins the trickiest boundary: a spike onset
// strictly inside a bulk window must fire with the same RNG draws, target,
// and duration as the per-second path.
func TestStepBulkCrossesSpikeOnset(t *testing.T) {
	spec := GenshinImpact()
	mk := func() *Session {
		s, err := NewSession(spec, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		// Advance into execution under full supply.
		for s.Phase() != PhaseExec {
			s.Step(resources.FullServer.Load())
		}
		// Pin the onset a few seconds out so the window spans it.
		s.spikeCountdown = 3
		return s
	}
	ref, bulk := mk(), mk()
	for i := 0; i < 40; i++ {
		ref.Step(resources.FullServer.Load())
	}
	bulk.StepBulk(resources.FullServer, 40)
	if ref.spikeLeft == 0 && ref.spikeCountdown > 1<<20 {
		t.Fatal("test setup: onset did not fire")
	}
	requireSameState(t, ref, bulk, "spike onset")
}

// TestStepBulkRunToCompletion drives whole sessions through StepBulk in one
// call and checks the terminal accounting matches the per-second run.
func TestStepBulkRunToCompletion(t *testing.T) {
	for _, spec := range AllGames() {
		ref, err := NewSession(spec, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		bulk, err := NewSession(spec, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for !ref.Done() && steps < 40_000 {
			ref.Step(resources.FullServer.Load())
			steps++
		}
		if !ref.Done() {
			t.Fatalf("%s: reference did not complete", spec.Name)
		}
		consumed := bulk.StepBulk(resources.FullServer, steps+100)
		if consumed != steps {
			t.Errorf("%s: bulk consumed %d, reference took %d", spec.Name, consumed, steps)
		}
		requireSameState(t, ref, bulk, spec.Name)
	}
}

// TestStepSatisfiedMatchesStep: StepSatisfied leaves bitwise the state
// Step(Demand()) leaves — the property Server.tickAt's fused pass rests on —
// whether or not the caller realised the demand first, and from states that
// throttled seconds (stretched loading, lag, spikes in flight) have produced.
func TestStepSatisfiedMatchesStep(t *testing.T) {
	for _, spec := range AllGames() {
		for script := range spec.Scripts {
			for seed := int64(1); seed <= 4; seed++ {
				ref, err := NewPlayerSession(spec, script, seed*11, seed)
				if err != nil {
					t.Fatal(err)
				}
				fast, _ := NewPlayerSession(spec, script, seed*11, seed)
				prng := rand.New(rand.NewSource(seed * 131))
				for sec := 0; !ref.Done() && sec < 40_000; sec++ {
					if prng.Intn(5) == 0 {
						// A throttled second on both, to move off the all-satisfied
						// trajectory.
						g := grantFor(2+prng.Intn(3), ref, prng)
						ref.Step(g.Load())
						fast.Step(g.Load())
					} else {
						d := ref.Demand()
						ref.Step(d)
						if prng.Intn(2) == 0 {
							if got := fast.Demand(); got != d {
								t.Fatalf("%s: demands diverged at %d: %v vs %v", spec.Name, sec, got, d)
							}
						}
						fast.StepSatisfied()
					}
					requireSameState(t, ref, fast, spec.Name)
				}
				if !ref.Done() {
					t.Fatalf("%s script %d seed %d: did not finish", spec.Name, script, seed)
				}
			}
		}
	}
}

// FuzzStepBulkEquivalence fuzzes the equivalence over seeds and chunk
// layouts; the checked property is identical to TestStepBulkMatchesStep.
func FuzzStepBulkEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0))
	f.Add(int64(99), int64(5), uint8(2))
	f.Add(int64(-7), int64(1234), uint8(4))
	games := AllGames()
	f.Fuzz(func(t *testing.T, habit, seed int64, gameIdx uint8) {
		spec := games[int(gameIdx)%len(games)]
		ref, err := NewPlayerSession(spec, 0, habit, seed)
		if err != nil {
			t.Skip()
		}
		bulk, _ := NewPlayerSession(spec, 0, habit, seed)
		prng := rand.New(rand.NewSource(seed ^ habit))
		steps := 0
		for chunk := 0; !ref.Done() && steps < 20_000; chunk++ {
			g := grantFor(chunk, ref, prng)
			n := 1 + prng.Intn(211)
			for i := 0; i < n; i++ {
				ref.Step(g.Load())
			}
			bulk.StepBulk(g, n)
			steps += n
			requireSameState(t, ref, bulk, spec.Name)
		}
	})
}
