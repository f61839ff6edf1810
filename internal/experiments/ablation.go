package experiments

import (
	"fmt"
	"strings"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/scheduler"
	"cocg/internal/simclock"
)

// RedundancyAblationRow is one redundancy-policy outcome.
type RedundancyAblationRow struct {
	Policy   string
	FPSRatio float64
	Degraded float64
	// MeanAlloc is the mean dominant-dimension allocation: redundancy costs
	// resources, so the interesting trade-off is QoS against footprint.
	MeanAlloc float64
}

// RedundancyAblationResult quantifies the value of Eq. 1's adaptive
// redundancy against no redundancy and a fixed 10 % margin.
type RedundancyAblationResult struct {
	Game string
	Rows []RedundancyAblationRow
}

// RedundancyAblation drives single Genshin sessions (the spikiest game)
// under the three redundancy policies.
func RedundancyAblation(ctx *Context) (*RedundancyAblationResult, error) {
	spec := gamesim.GenshinImpact()
	b, _ := ctx.System.Bundle(spec.Name)
	variants := []struct {
		name string
		cfg  predictor.Config
	}{
		{"Eq.1 adaptive", predictor.Config{}},
		{"none", predictor.Config{DisableRedundancy: true}},
		{"fixed 10%", predictor.Config{FixedRedundancy: 0.1}},
	}
	sessions := scaled(ctx.Opt.Fast, 8, 3)
	out := &RedundancyAblationResult{Game: spec.Name}
	habits := b.Habits()
	for _, v := range variants {
		var fps, deg, alloc float64
		var n float64
		for s := 0; s < sessions; s++ {
			habit := habits[s%len(habits)]
			var allocSum float64
			ticks := 0
			sess, _, err := soloSession(b, s, habit, ctx.Opt.Seed+int64(7000+s), v.cfg,
				func(_ resources.Vector, _ predictor.Decision, _ bool, a resources.Vector) {
					allocSum += a.Dominant()
					ticks++
				})
			if err != nil {
				return nil, err
			}
			fps += sess.FPSRatio()
			deg += sess.DegradedFraction()
			alloc += allocSum / float64(ticks)
			n++
		}
		out.Rows = append(out.Rows, RedundancyAblationRow{
			Policy:    v.name,
			FPSRatio:  fps / n,
			Degraded:  deg / n,
			MeanAlloc: alloc / n,
		})
	}
	return out, nil
}

// String renders the ablation.
func (r *RedundancyAblationResult) String() string {
	t := &table{title: fmt.Sprintf("Ablation: redundancy allocation (Eq. 1) on %s", r.Game),
		header: []string{"policy", "FPS ratio", "degraded", "mean alloc"}}
	for _, row := range r.Rows {
		t.add(row.Policy, pct(row.FPSRatio), pct(row.Degraded), f1(row.MeanAlloc))
	}
	return t.String()
}

// StealAblationResult compares the regulator with and without loading-time
// stealing on the Fig. 9 pair.
type StealAblationResult struct {
	WithSteal    platform.QoSSummary
	WithoutSteal platform.QoSSummary
	StolenSec    float64
}

// LoadingStealAblation reruns the Genshin+DOTA2 co-location with the
// regulator's loading-extension disabled.
func LoadingStealAblation(ctx *Context) (*StealAblationResult, error) {
	out := &StealAblationResult{}
	for _, disable := range []bool{false, true} {
		pol := scheduler.New(ctx.System.Trained(), scheduler.Config{DisableLoadingSteal: disable})
		c := closedLoop(ctx, 1, pol, ctx.Opt.Seed+17,
			[][2]*gamesim.GameSpec{{gamesim.GenshinImpact(), gamesim.DOTA2()}}, nil)
		recs := c.Records()
		sum := platform.Summarize(recs)
		if disable {
			out.WithoutSteal = sum
		} else {
			out.WithSteal = sum
			for _, r := range recs {
				out.StolenSec += r.LoadStolen
			}
		}
	}
	return out, nil
}

// String renders the comparison.
func (r *StealAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: loading-time stealing (regulator) on Genshin+DOTA2\n")
	fmt.Fprintf(&b, "  with steal   : %s (stole %.0f s of loading)\n", r.WithSteal, r.StolenSec)
	fmt.Fprintf(&b, "  without steal: %s\n", r.WithoutSteal)
	return b.String()
}

// IntervalAblationRow is one detection-interval outcome.
type IntervalAblationRow struct {
	IntervalSec int
	// LoadingDetectRate is the fraction of true loading stages the
	// interval can catch (a loading stage shorter than the interval is
	// invisible).
	LoadingDetectRate float64
	// FramesPerStage is the mean number of detection samples per execution
	// stage — the resolution the clusterer works with.
	FramesPerStage float64
}

// IntervalAblationResult justifies the paper's 5-second frame choice: a
// shorter interval adds overhead without catching more loading stages, a
// longer one starts missing them.
type IntervalAblationResult struct {
	Game string
	Rows []IntervalAblationRow
}

// FrameIntervalAblation measures loading-stage detectability at several
// detection intervals over raw traces.
func FrameIntervalAblation(ctx *Context) (*IntervalAblationResult, error) {
	spec := gamesim.CSGO() // shortest loading range: the binding case
	out := &IntervalAblationResult{Game: spec.Name}
	traces := scaled(ctx.Opt.Fast, 6, 2)
	var all []*gamesim.Trace
	for i := 0; i < traces; i++ {
		tr, err := gamesim.Record(spec, i%len(spec.Scripts), ctx.Opt.Seed+int64(400+i))
		if err != nil {
			return nil, err
		}
		all = append(all, tr)
	}
	for _, interval := range []int{1, 5, 10, 20, 30} {
		var caught, totalLoads int
		var stageFrames, stages float64
		for _, tr := range all {
			for _, v := range tr.Visits {
				startSec := v.StartFrame * int(simclock.FrameLen)
				endSec := v.EndFrame * int(simclock.FrameLen)
				dur := endSec - startSec
				if v.Loading {
					totalLoads++
					// An interval catches a loading stage when at least one
					// whole sampling window fits inside it with a loading
					// majority.
					if dur >= interval {
						caught++
					}
				} else {
					stages++
					stageFrames += float64(dur / interval)
				}
			}
		}
		row := IntervalAblationRow{IntervalSec: interval}
		if totalLoads > 0 {
			row.LoadingDetectRate = float64(caught) / float64(totalLoads)
		}
		if stages > 0 {
			row.FramesPerStage = stageFrames / stages
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the interval ablation.
func (r *IntervalAblationResult) String() string {
	t := &table{title: fmt.Sprintf("Ablation: detection interval (the paper picks 5 s) on %s", r.Game),
		header: []string{"interval (s)", "loading stages caught", "samples per exec stage"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.IntervalSec), pct(row.LoadingDetectRate), f1(row.FramesPerStage))
	}
	return t.String()
}

// GraphPartitionResult is Section V-D1's clustering-method comparison, one
// row per game.
type GraphPartitionResult struct {
	Rows []*GraphPartitionComparison
}

// GraphPartitionAblation runs the clustering-method comparison for every
// game (Section V-D1).
func GraphPartitionAblation(ctx *Context) (*GraphPartitionResult, error) {
	out := &GraphPartitionResult{}
	for _, game := range ctx.System.Games() {
		r, err := CompareClusterers(ctx, game)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, r)
	}
	return out, nil
}

// String renders one line per game.
func (r *GraphPartitionResult) String() string {
	var b strings.Builder
	b.WriteString("Clustering method comparison (Section V-D1)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	return b.String()
}
