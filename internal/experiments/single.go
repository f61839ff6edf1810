package experiments

import (
	"fmt"

	"cocg/internal/gamesim"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Fig2Stage summarizes one ground-truth stage of a session trace.
type Fig2Stage struct {
	Index    int
	Name     string
	Loading  bool
	Duration simclock.Seconds
	MeanCPU  float64
	MeanGPU  float64
}

// Fig2Result reproduces Fig. 2: the per-stage resource utilization of one
// game session, showing distinct consumption per scene and CPU-heavy,
// GPU-idle loading stages between them.
type Fig2Result struct {
	Game   string
	Stages []Fig2Stage
	// Series is the raw (t, cpu, gpu) trace at 5-second resolution for
	// plotting.
	Series []resources.Vector
}

// Fig2 records one full session of the mobile-game representative at full
// supply and summarizes its stages.
func Fig2(ctx *Context) (*Fig2Result, error) {
	spec := gamesim.GenshinImpact()
	tr, err := gamesim.Record(spec, 0, ctx.Opt.Seed+77)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{Game: spec.Name}
	for _, f := range tr.Frames {
		out.Series = append(out.Series, f.Demand)
	}
	for i, v := range tr.Visits {
		seg := tr.Frames[v.StartFrame:v.EndFrame]
		var mean resources.Vector
		for _, f := range seg {
			mean = mean.Add(f.Demand)
		}
		mean = mean.Scale(1 / float64(len(seg)))
		name := "loading"
		if !v.Loading {
			name = spec.StageTypes[v.Type].Name
		}
		out.Stages = append(out.Stages, Fig2Stage{
			Index:    i + 1,
			Name:     name,
			Loading:  v.Loading,
			Duration: simclock.Seconds((v.EndFrame - v.StartFrame) * int(simclock.FrameLen)),
			MeanCPU:  mean[resources.CPU],
			MeanGPU:  mean[resources.GPU],
		})
	}
	return out, nil
}

// String renders the per-stage summary.
func (r *Fig2Result) String() string {
	t := &table{title: fmt.Sprintf("Fig. 2: resource utilization across the stages of %s", r.Game),
		header: []string{"stage", "kind", "duration", "mean CPU%", "mean GPU%"}}
	for _, s := range r.Stages {
		t.add(fmt.Sprint(s.Index), s.Name, s.Duration.String(), f1(s.MeanCPU), f1(s.MeanGPU))
	}
	return t.String()
}

// Fig10Game is one game's allocation-saving summary.
type Fig10Game struct {
	Game string
	// Sessions measured.
	Sessions int
	// MeanAlloc and PeakAlloc are averaged across dimensions.
	MeanAlloc float64
	PeakAlloc float64
	// Saving = 1 - MeanAlloc/PeakAlloc: resources freed versus always
	// reserving the game's peak.
	Saving float64
	// FPSRatio and Degraded verify QoS was held while saving.
	FPSRatio float64
	Degraded float64
	// Callbacks counts rehearsal-callback activations (the "three brief
	// allocation increases" of Fig. 10's narrative).
	Callbacks int
}

// Fig10Result reproduces Fig. 10 and the Section V-B1 numbers: predictor-
// driven allocation versus the always-peak baseline, per game and averaged.
type Fig10Result struct {
	Games []Fig10Game
	// AvgSaving is the cross-game mean (the paper reports 17.5 %).
	AvgSaving float64
	// GenshinSeries is the (allocated, demanded) GPU series of one Genshin
	// session for plotting the figure itself.
	GenshinSeries [][2]float64
}

// Fig10 drives returning-player sessions of every game under the predictor
// and measures allocation savings at held QoS.
func Fig10(ctx *Context) (*Fig10Result, error) {
	out := &Fig10Result{}
	sessionsPer := scaled(ctx.Opt.Fast, 6, 2)
	pools := ctx.System.HabitPools()
	var savingSum float64
	for _, game := range ctx.System.Games() {
		b, _ := ctx.System.Bundle(game)
		habits := pools[game]
		row := Fig10Game{Game: game}
		var allocSum, peakSum, fpsSum, degSum float64
		var dims float64
		peakAlloc := b.Profile.PeakDemand().Scale(1.08).Add(resources.Uniform(2)).Clamp(0, 100)
		for s := 0; s < sessionsPer; s++ {
			habit := habits[s%len(habits)]
			plot := game == "Genshin Impact" && s == 0
			var local resources.Vector
			frames := 0
			sess, _, err := soloSession(b, s, habit, ctx.Opt.Seed+int64(9000+s), predictor.Config{},
				func(demand resources.Vector, d predictor.Decision, ok bool, alloc resources.Vector) {
					if ok {
						local = local.Add(d.Alloc)
						frames++
						if d.Callback {
							row.Callbacks++
						}
					}
					if plot {
						out.GenshinSeries = append(out.GenshinSeries, [2]float64{alloc[resources.GPU], demand[resources.GPU]})
					}
				})
			if err != nil {
				return nil, err
			}
			mean := local.Scale(1 / float64(frames))
			for d := resources.Dim(0); d < resources.NumDims; d++ {
				allocSum += mean[d]
				peakSum += peakAlloc[d]
				dims++
			}
			fpsSum += sess.FPSRatio()
			degSum += sess.DegradedFraction()
			row.Sessions++
		}
		row.MeanAlloc = allocSum / dims
		row.PeakAlloc = peakSum / dims
		row.Saving = 1 - row.MeanAlloc/row.PeakAlloc
		row.FPSRatio = fpsSum / float64(row.Sessions)
		row.Degraded = degSum / float64(row.Sessions)
		savingSum += row.Saving
		out.Games = append(out.Games, row)
	}
	out.AvgSaving = savingSum / float64(len(out.Games))
	return out, nil
}

// String renders the savings table.
func (r *Fig10Result) String() string {
	t := &table{title: "Fig. 10 / Section V-B1: predictor-driven allocation vs always-peak",
		header: []string{"Game", "sessions", "mean alloc", "peak alloc", "saving", "FPS ratio", "degraded", "callbacks"}}
	for _, g := range r.Games {
		t.add(g.Game, fmt.Sprint(g.Sessions), f1(g.MeanAlloc), f1(g.PeakAlloc),
			pct(g.Saving), pct(g.FPSRatio), pct(g.Degraded), fmt.Sprint(g.Callbacks))
	}
	t.note = fmt.Sprintf("average saving across games: %s (paper: 17.5%%)", pct(r.AvgSaving))
	return t.String()
}

// Fig12Row is one game's overhead comparison.
type Fig12Row struct {
	Game        string
	LoadMinSec  simclock.Seconds
	LoadMaxSec  simclock.Seconds
	LoadMeanSec float64
	PredictSec  map[string]simclock.Seconds // by model name
}

// Fig12Result reproduces Fig. 12: per-game loading times versus the
// end-to-end prediction latency — prediction always completes within the
// loading window, so scheduling overhead hides entirely.
type Fig12Result struct {
	Rows []Fig12Row
	// AllCovered is true when every model's latency is below every game's
	// minimum loading time.
	AllCovered bool
}

// Fig12 measures loading durations from the profiles and the simulated
// prediction latency per model.
func Fig12(ctx *Context) (*Fig12Result, error) {
	out := &Fig12Result{AllCovered: true}
	for _, game := range ctx.System.Games() {
		b, _ := ctx.System.Bundle(game)
		load, _ := b.Profile.Stage(0)
		row := Fig12Row{
			Game:        game,
			LoadMinSec:  b.Spec.LoadMin,
			LoadMaxSec:  b.Spec.LoadMax,
			LoadMeanSec: load.MeanDurFrames * float64(simclock.FrameLen),
			PredictSec:  map[string]simclock.Seconds{},
		}
		for _, m := range b.Models {
			lat := predictor.PredictionLatency(m, b.Profile.NumStageTypes())
			row.PredictSec[m.Name()] = lat
			if lat > b.Spec.LoadMin {
				out.AllCovered = false
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the overhead table.
func (r *Fig12Result) String() string {
	t := &table{title: "Fig. 12: scheduling overhead — prediction latency vs loading time",
		header: []string{"Game", "load range (s)", "load mean (s)", "DTC (s)", "RF (s)", "GBDT (s)"}}
	for _, row := range r.Rows {
		t.add(row.Game,
			fmt.Sprintf("%d-%d", row.LoadMinSec, row.LoadMaxSec),
			f1(row.LoadMeanSec),
			fmt.Sprintf("%d", int64(row.PredictSec["DTC"])),
			fmt.Sprintf("%d", int64(row.PredictSec["RF"])),
			fmt.Sprintf("%d", int64(row.PredictSec["GBDT"])))
	}
	t.note = fmt.Sprintf("prediction always inside the loading window: %v (paper: 3-13 s vs 5-30 s)",
		r.AllCovered)
	return t.String()
}
