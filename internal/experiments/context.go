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
	// ref is each game's unimpeded mean session length, the S_i of Eq. 2.
	ref map[string]float64
}

// Experiment is one table or figure of the evaluation.
type Experiment struct {
	Name string
	Run  func(*Context) (fmt.Stringer, error)
}

// All lists every experiment in presentation order; `cocg -list` prints
// their names.
var All = []Experiment{
	{"table1", result(TableI)},
	{"fig2", result(Fig2)},
	{"fig5", result(Fig5)},
	{"fig6", result(Fig6)},
	{"fig9", result(Fig9)},
	{"fig10", result(Fig10)},
	{"fig11", result(Fig11)},
	{"fig12", result(Fig12)},
	{"fig13", result(Fig13)},
	{"fig14", result(Fig14)},
	{"fig15", result(Fig15)},
	{"pairs", result(PairMatrix)},
	{"scaleout", result(ScaleOut)},
	{"online", result(OnlineLearning)},
	{"ablation-category", result(CategoryAblation)},
	{"ablation-redundancy", result(RedundancyAblation)},
	{"ablation-steal", result(LoadingStealAblation)},
	{"ablation-interval", result(FrameIntervalAblation)},
	{"ablation-placement", result(PlacementAblation)},
	{"ablation-clustering", result(GraphPartitionAblation)},
}

// result adapts an experiment's concrete signature to Experiment.Run.
func result[T fmt.Stringer](run func(*Context) (T, error)) func(*Context) (fmt.Stringer, error) {
	return func(ctx *Context) (fmt.Stringer, error) { return run(ctx) }
}

// NewContext trains the full five-game system once.
func NewContext(opt Options) (*Context, error) {
	players, sessions := scaled(opt.Fast, 12, 6), scaled(opt.Fast, 4, 2)
	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{
		Players:           players,
		SessionsPerPlayer: sessions,
		Seed:              opt.Seed + 31,
		Workers:           opt.Jobs,
	})
	if err != nil {
		return nil, err
	}
	return &Context{Opt: opt, System: sys, ref: refDurations(sys)}, nil
}

// horizon returns the co-location experiment duration: the paper's two
// hours, or twenty minutes in fast mode.
func (c *Context) horizon() simclock.Seconds {
	return scaled(c.Opt.Fast, 2*simclock.Hour, 20*simclock.Minute)
}

// scaled returns the full-scale size, or the fast one in fast mode.
func scaled[T any](fast bool, full, small T) T {
	if fast {
		return small
	}
	return full
}

// refDurations returns each game's unimpeded mean session length (from the
// profiling corpus) — the S_i of Eq. 2.
func refDurations(sys *core.System) map[string]float64 {
	out := map[string]float64{}
	for _, game := range sys.Games() {
		b, _ := sys.Bundle(game)
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

// table is a tiny fixed-width table renderer shared by the experiments: an
// optional title line, the header, a rule, the rows and an optional note.
type table struct {
	title, note string
	header      []string
	rows        [][]string
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
	if t.title != "" {
		b.WriteString(t.title + "\n")
	}
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
	if t.note != "" {
		b.WriteString(t.note + "\n")
	}
	return b.String()
}

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
