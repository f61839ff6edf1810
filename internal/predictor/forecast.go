package predictor

import (
	"slices"

	"cocg/internal/dataset"
	"cocg/internal/profiler"
	"cocg/internal/resources"
)

// Loading reports the predictor's current belief that its game is in a
// loading stage.
func (pr *Predictor) Loading() bool {
	_, loading := pr.det.Current()
	return loading
}

// Segment is one run of a forecast timeline: Frames consecutive detection
// frames at one Demand. A stage is forecast at a single level, so a timeline
// is a handful of runs (a 120-frame horizon is typically 6-14) and consumers
// that can work run by run never touch the per-frame expansion.
type Segment struct {
	Frames int
	Demand resources.Vector
}

// ForecastScratch owns the reusable buffers one forecasting goroutine needs:
// the working stage history the iterative prediction extends, the feature
// vector handed to the model, and the runs a dense forecast is expanded from.
// A zero value is ready to use; a scratch must not be shared between
// concurrent forecasts.
type ForecastScratch struct {
	hist []dataset.StageObs
	feat []float64
	runs []Segment
}

// ForecastDemandInto projects the session's raw sustained-peak demand over
// the next `frames` detection frames, one vector per frame: the per-frame
// expansion of AppendForecastRuns. The timeline is appended to dst[:0]'s
// backing array (grown as needed) and returned, with all intermediate state
// drawn from scratch, so steady-state calls allocate nothing.
func (pr *Predictor) ForecastDemandInto(frames int, dst []resources.Vector, scratch *ForecastScratch) []resources.Vector {
	scratch.runs = pr.forecastRuns(scratch.runs[:0], frames, scratch)
	return expandRuns(dst[:0], scratch.runs)
}

// AppendForecastRuns appends the raw demand timeline of the next `frames`
// detection frames to dst as runs, in time order; the appended run lengths
// sum to frames. The remainder of the current stage comes first, then
// model-predicted stages separated by typical loading gaps. It is the form
// Algorithm 1's distributor sums to find future peak overlaps; it carries no
// allocation headroom, which would double-count the safety margin.
func (pr *Predictor) AppendForecastRuns(dst []Segment, frames int, scratch *ForecastScratch) []Segment {
	return pr.forecastRuns(dst, frames, scratch)
}

// expandRuns appends every run's demand, once per frame, to dst.
func expandRuns(dst []resources.Vector, runs []Segment) []resources.Vector {
	for i := range runs {
		n := len(dst)
		dst = slices.Grow(dst, runs[i].Frames)[:n+runs[i].Frames]
		span := dst[n:]
		for t := range span {
			span[t] = runs[i].Demand
		}
	}
	return dst
}

// forecastRuns is the one forecast generator: it appends the projected
// timeline to dst as stage runs, cutting the last run at the horizon. The
// arithmetic is identical at every call site and with every scratch (buffer
// reuse never changes a value), so the cached-aggregate property tests can
// compare it against freshly allocated runs byte for byte.
//
//cocg:hot
func (pr *Predictor) forecastRuns(dst []Segment, frames int, scratch *ForecastScratch) []Segment {
	left := frames
	// run appends up to n frames at demand *d, never past the horizon. Every
	// demand is a catalog or predictor field, read in place.
	run := func(n int, d *resources.Vector) {
		if n > left {
			n = left
		}
		if n > 0 {
			dst = append(dst, Segment{Frames: n})
			dst[len(dst)-1].Demand.Store(d.Load())
			left -= n
		}
	}
	// Catalog entries are read in place: Profile.Stage returns the 120-byte
	// signature by value, which this loop would copy once per predicted stage.
	catalog := pr.profile.Catalog
	loadFrames := int(catalog[profiler.LoadingStageID].MeanDurFrames + 0.5)
	if loadFrames < 1 {
		loadFrames = 2
	}
	loadPeak := &catalog[profiler.LoadingStageID].Peak

	// Working copy of the stage history for iterative prediction.
	hist := append(scratch.hist[:0], pr.hist...)
	pos := pr.pos

	// Phase 1: the rest of the current stage (or loading).
	if pr.Loading() {
		run(loadFrames, loadPeak)
	} else if pr.haveStage {
		remaining := 2
		peak := &pr.peakM
		if pr.curID >= 0 && pr.curID < len(catalog) {
			s := &catalog[pr.curID]
			remaining = int(s.MeanDurFrames+0.5) - pr.curFrames
			if remaining < 1 {
				remaining = 1
			}
			peak = &s.Peak
		}
		run(remaining, peak)
		hist = append(hist, dataset.StageObs{ID: pr.curID, Frames: pr.curFrames})
		hist[len(hist)-1].Mean.Store(pr.curSum.Scale(1 / float64(max(1, pr.curFrames))))
		pos++
	}

	// Phase 2: iterate model predictions until the horizon fills.
	for left > 0 {
		next := -1
		if len(hist) > 0 {
			scratch.feat = dataset.AppendFeatures(scratch.feat, hist, pos-1)
			if n, err := pr.models[pr.active].Predict(scratch.feat); err == nil &&
				n > profiler.LoadingStageID && n < len(catalog) {
				next = n
			}
		} else if pr.predicted >= 0 {
			next = pr.predicted
		}
		if next < 0 {
			// No usable prediction: fill the rest with the safe peak.
			run(left, &pr.peakM)
			break
		}
		// Loading gap, then the predicted stage; a stage the catalog does not
		// know runs two frames at the safe peak.
		run(loadFrames, loadPeak)
		obs := dataset.StageObs{ID: next, Frames: 2}
		peak := &pr.peakM
		if next < len(catalog) {
			s := &catalog[next]
			if obs.Frames = int(s.MeanDurFrames + 0.5); obs.Frames < 1 {
				obs.Frames = 2
			}
			obs.Mean = s.Mean
			peak = &s.Peak
		}
		run(obs.Frames, peak)
		hist = append(hist, obs)
		pos++
	}
	scratch.hist = hist[:0]
	return dst
}
