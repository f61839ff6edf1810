// Package workload generates the arrival streams of Section V: pair
// saturation runs (Fig. 11's two-game combinations, where the selected games
// continuously request placement for two hours) and mixed datacenter
// streams.
package workload

import (
	"math/rand"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
)

// Generator produces arrivals for a set of games with player-structured
// habits: habits are drawn from a fixed pool (returning players) so trained
// per-habit models apply.
type Generator struct {
	rng      *rand.Rand
	habits   map[string][]int64
	nextSess int64
}

// NewGenerator builds a generator. habitsByGame lists the returning-player
// habit seeds available per game (from the training corpus); games without
// an entry get fresh random habits.
func NewGenerator(habitsByGame map[string][]int64, seed int64) *Generator {
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		habits:   habitsByGame,
		nextSess: seed*7919 + 17,
	}
}

// Next produces one arrival for the given game: a random script (the paper:
// "when a game is assigned, it randomly selects one from the scripts"),
// except for mobile games where the returning player's habit picks their
// daily routine.
func (g *Generator) Next(spec *gamesim.GameSpec) platform.Arrival {
	habit := g.rng.Int63()
	if pool := g.habits[spec.Name]; len(pool) > 0 {
		habit = pool[g.rng.Intn(len(pool))]
	}
	script := g.rng.Intn(len(spec.Scripts))
	if spec.Category == gamesim.Mobile {
		script = int(uint64(habit) % uint64(len(spec.Scripts)))
	}
	g.nextSess++
	return platform.Arrival{
		Spec:        spec,
		Script:      script,
		Habit:       habit,
		SessionSeed: g.nextSess,
	}
}

// pairBacklog is how many arrivals of each game a PairStream keeps queued.
const pairBacklog = 1

// PairStream keeps a cluster saturated with two games: whenever fewer than
// pairBacklog arrivals of a game wait in the cluster's Pending queue, it
// submits another. Running sessions do not count: however many are hosted,
// the stream keeps arrivals queued for the distributor. This reproduces
// Fig. 11's setting.
type PairStream struct {
	Gen  *Generator
	A, B *gamesim.GameSpec
}

// Feed tops the cluster's Pending queue up to pairBacklog arrivals per game.
// Every caller feeds once per second, just before Cluster.Tick.
func (p *PairStream) Feed(c *platform.Cluster) {
	countPending := map[string]int{}
	for _, a := range c.Pending {
		countPending[a.Spec.Name]++
	}
	for _, spec := range []*gamesim.GameSpec{p.A, p.B} {
		for countPending[spec.Name] < pairBacklog {
			c.Submit(p.Gen.Next(spec))
			countPending[spec.Name]++
		}
	}
}

// MixStream submits arrivals of many games at a fixed mean rate (Poisson
// thinning per second), for datacenter-scale experiments.
type MixStream struct {
	Gen  *Generator
	Mix  []*gamesim.GameSpec
	Rate float64 // expected arrivals per second
	rng  *rand.Rand
}

// NewMixStream builds a mixed arrival stream.
func NewMixStream(gen *Generator, mix []*gamesim.GameSpec, rate float64, seed int64) *MixStream {
	return &MixStream{Gen: gen, Mix: mix, Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// second draws one second's arrivals, without stamping Submitted.
func (m *MixStream) second() []platform.Arrival {
	n := int(m.Rate)
	if m.rng.Float64() < m.Rate-float64(n) {
		n++
	}
	out := make([]platform.Arrival, 0, n)
	for i := 0; i < n; i++ {
		spec := m.Mix[m.rng.Intn(len(m.Mix))]
		out = append(out, m.Gen.Next(spec))
	}
	return out
}

// Schedule pregenerates the next horizon seconds of the stream, starting at
// second start, as a Submitted-stamped, ascending arrival schedule for
// Cluster.RunEvented. Consecutive calls continue the stream: two schedules of
// h seconds each draw exactly what one schedule of 2h does.
func (m *MixStream) Schedule(start, horizon simclock.Seconds) []platform.Arrival {
	if len(m.Mix) == 0 {
		return nil
	}
	var out []platform.Arrival
	for t := simclock.Seconds(0); t < horizon; t++ {
		for _, a := range m.second() {
			a.Submitted = start + t
			out = append(out, a)
		}
	}
	return out
}
