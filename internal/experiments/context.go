// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated platform. Each experiment returns
// a structured result whose String method renders the same rows or series
// the paper reports; EXPERIMENTS.md records paper-vs-measured for each.
//
// Concurrency contract: every experiment treats the shared Context (and the
// trained System inside it) as read-only, so independent experiments may run
// concurrently over one Context — cmd/cocg does exactly that behind its
// -jobs flag. Experiments that need mutable training state (OnlineLearning)
// clone the bundle they touch first. Each experiment derives all of its
// randomness from Options.Seed plus experiment-specific offsets, never from
// shared RNGs, so results are identical regardless of which experiments run,
// in what order, or on how many goroutines.
package experiments

import (
	"fmt"
	"strings"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/simclock"
)

// Options shapes an experiment run.
type Options struct {
	// Seed makes the whole run reproducible.
	Seed int64
	// Fast shrinks corpus sizes and durations for smoke tests and
	// benchmarks; full runs reproduce the paper's two-hour windows.
	Fast bool
	// Jobs bounds the goroutines used for offline training and within
	// experiments; <= 0 means GOMAXPROCS. Results do not depend on it.
	Jobs int
}

// Context caches the expensive offline training pass across experiments.
type Context struct {
	Opt    Options
	System *core.System
}

// NewContext trains the full five-game system once.
func NewContext(opt Options) (*Context, error) {
	players, sessions := 12, 4
	if opt.Fast {
		players, sessions = 6, 2
	}
	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{
		Players:           players,
		SessionsPerPlayer: sessions,
		Seed:              opt.Seed + 31,
		Workers:           opt.Jobs,
	})
	if err != nil {
		return nil, err
	}
	return &Context{Opt: opt, System: sys}, nil
}

// workers is the per-experiment goroutine budget.
func (c *Context) workers() int { return c.Opt.Jobs }

// horizon returns the co-location experiment duration: the paper's two
// hours, or twenty minutes in fast mode.
func (c *Context) horizon() simclock.Seconds {
	if c.Opt.Fast {
		return 20 * simclock.Minute
	}
	return 2 * simclock.Hour
}

// refDurations returns each game's unimpeded mean session length (from the
// profiling corpus) — the S_i of Eq. 2.
func (c *Context) refDurations() map[string]float64 {
	out := map[string]float64{}
	for _, game := range c.System.Games() {
		b, _ := c.System.Bundle(game)
		var sum float64
		for _, tr := range b.Corpus {
			sum += float64(tr.Duration)
		}
		if len(b.Corpus) > 0 {
			out[game] = sum / float64(len(b.Corpus))
		}
	}
	return out
}

// table is a tiny fixed-width table renderer shared by the experiments.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
