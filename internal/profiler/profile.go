// Package profiler implements the frame-gained game profiler of Section
// IV-A: it clusters 5-second frames with K-means, segments traces into
// loading and execution stages using the loading cluster as the separator
// (Observation 2), and derives the game's stage-type catalog — each stage
// type being a combination of frame clusters (Fig. 4).
package profiler

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"cocg/internal/cluster"
	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// LoadingStageID is the catalog ID reserved for the loading stage type.
const LoadingStageID = 0

// MaxClusters is the most frame clusters a profile may have: the online
// detector keeps the clusters seen in a stage as one bit each of a uint64.
// The paper's elbow sweep stops at 8.
const MaxClusters = 64

// ErrNoTraces is returned when a profile is built from no data.
var ErrNoTraces = errors.New("profiler: no traces")

// StageSig is one entry of a game's stage-type catalog.
type StageSig struct {
	ID int
	// ClusterSet is the sorted set of frame clusters composing this stage
	// type; its string form is the catalog key.
	ClusterSet []int
	// Mean and Peak summarize the demand of frames observed in this stage;
	// Peak is what the scheduler reserves when the stage is predicted.
	Mean resources.Vector
	Peak resources.Vector
	// MeanDurFrames is the average observed stage length in frames.
	MeanDurFrames float64
	// Count is how many stage occurrences back this signature.
	Count   int
	Loading bool
}

// Key returns the canonical string form of a cluster set.
func Key(set []int) string {
	b := make([]byte, 0, 3*len(set))
	for i, c := range set {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// Detected is one stage occurrence found in a frame sequence.
type Detected struct {
	StageID int
	Start   int // inclusive frame index
	End     int // exclusive frame index
	Loading bool
	Mean    resources.Vector
	// Peak is the sustained (90th percentile per dimension) demand of the
	// occurrence. Using a percentile rather than the raw maximum keeps
	// transient spikes — which the rehearsal callback absorbs — from
	// inflating every future reservation of this stage type.
	Peak resources.Vector
}

// Frames returns the stage length in frames.
func (d Detected) Frames() int { return d.End - d.Start }

// Profile is the offline profiling result for one game: the fitted frame
// clusters plus the stage-type catalog. The paper performs this pass once
// per game (Section IV-D: stage structure is platform-independent).
type Profile struct {
	Game             string
	Clusters         *cluster.Result
	LoadingClusterID int
	Catalog          []StageSig

	sigIndex map[string]int
	minShare float64
	// peak is PeakDemand's result and entry[cl] the stage a game entering
	// execution on cluster cl is identified as (see entryStage); both are
	// derived once when Build or UnmarshalJSON finishes the catalog, which is
	// immutable afterwards.
	peak  resources.Vector
	entry []int
}

// Config controls profile construction.
type Config struct {
	// K is the number of frame clusters. When <= 0 it is chosen by the
	// elbow criterion on an SSE sweep (Fig. 14).
	K int
	// MaxK bounds the elbow sweep; defaults to 8.
	MaxK int
	// MinClusterShare filters incidental clusters out of a stage signature:
	// a cluster must cover at least this fraction of the stage's frames to
	// be part of the signature. Defaults to 0.34 — genuine multi-cluster
	// stages split close to evenly between their clusters, while transient
	// bursts cover well under a third of a stage.
	MinClusterShare float64
	Seed            int64
}

func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 8
	}
	if c.MinClusterShare <= 0 {
		c.MinClusterShare = 0.34
	}
	return c
}

// Build constructs a game profile from offline traces.
func Build(traces []*gamesim.Trace, cfg Config) (*Profile, error) {
	p, _, err := BuildStages(traces, cfg)
	return p, err
}

// BuildStages is Build that also returns every trace's stages detected
// against the finished profile, indexed like traces: stages[i] equals
// p.DetectStages(traces[i].FrameVectors()). Callers that go on to extract
// stage sequences from the same corpus (dataset.NewExtractor) reuse it
// instead of detecting the corpus again.
//
// The pass reads each frame once per step: the frame vectors are
// materialised once, every frame is classified once, and each trace is
// segmented and summarised once. Pruning only renumbers stages, so the
// final detection is the first one with its stage IDs looked up again.
func BuildStages(traces []*gamesim.Trace, cfg Config) (*Profile, [][]Detected, error) {
	if len(traces) == 0 {
		return nil, nil, ErrNoTraces
	}
	c := cfg.withDefaults()
	total := 0
	for _, tr := range traces {
		total += len(tr.Frames)
	}
	if total == 0 {
		return nil, nil, ErrNoTraces
	}
	frames := make([]resources.Vector, 0, total)
	for _, tr := range traces {
		for _, f := range tr.Frames {
			frames = append(frames, f.Demand)
		}
	}
	k := c.K
	if k <= 0 {
		// The per-K runs share nothing, so Sweep fans out over them (0:
		// GOMAXPROCS); training names K and never reaches this path.
		curve, err := cluster.Sweep(frames, c.MaxK, c.Seed, 0)
		if err != nil {
			return nil, nil, err
		}
		k = cluster.Elbow(curve, 0.06)
	}
	if k > MaxClusters {
		return nil, nil, fmt.Errorf("profiler: %d frame clusters requested, at most %d are supported", k, MaxClusters)
	}
	res, err := cluster.KMeans(frames, cluster.Config{K: k, Seed: c.Seed})
	if err != nil {
		return nil, nil, err
	}
	p := &Profile{
		Game:             traces[0].Game,
		Clusters:         res,
		LoadingClusterID: loadingCluster(res),
		sigIndex:         map[string]int{},
		minShare:         c.MinClusterShare,
	}
	p.Catalog = append(p.Catalog, StageSig{
		ID:         LoadingStageID,
		ClusterSet: []int{p.LoadingClusterID},
		Loading:    true,
	})
	p.sigIndex["loading"] = LoadingStageID

	labels := make([]int, len(frames))
	for i, f := range frames {
		labels[i] = res.Nearest(f)
	}
	stages := make([][]Detected, len(traces))
	sets := make([][][]int, len(traces))
	perTrace := make([][]resources.Vector, len(traces))
	off := 0
	for t, tr := range traces {
		end := off + len(tr.Frames)
		perTrace[t] = frames[off:end]
		stages[t], sets[t] = p.detect(frames[off:end], labels[off:end])
		for i, d := range stages[t] {
			p.absorb(d, sets[t][i])
		}
		off = end
	}
	p.prune()
	for t := range stages {
		for i := range stages[t] {
			if !stages[t][i].Loading {
				stages[t][i].StageID = p.stageID(sets[t][i])
			}
		}
	}
	p.recomputeStats(perTrace, stages)
	p.finish()
	return p, stages, nil
}

// finish derives what the immutable catalog determines: the game's peak
// demand and every cluster's entry stage.
func (p *Profile) finish() {
	p.peak = p.catalogPeak()
	p.entry = make([]int, len(p.Clusters.Centroids))
	for cl := range p.entry {
		p.entry[cl] = p.entryStage(cl)
	}
}

// entryStage picks the catalog stage a game most likely entered given its
// first execution cluster: an exact single-cluster signature when one
// exists, otherwise the most frequently observed containing stage.
func (p *Profile) entryStage(cl int) int {
	if id, ok := p.StageByClusters([]int{cl}); ok {
		return id
	}
	if ids := p.CandidateStages(cl); len(ids) > 0 {
		return ids[0]
	}
	return -1
}

// recomputeStats rebuilds each catalog stage's Mean and sustained Peak from
// the frames pooled across every occurrence of the final detection (after
// pruning has settled the stage IDs). Pooling makes the sustained peak
// robust to occasional short, spike-dominated occurrences.
func (p *Profile) recomputeStats(frames [][]resources.Vector, stages [][]Detected) {
	pool := make([][]resources.Vector, len(p.Catalog))
	for t, dets := range stages {
		for _, d := range dets {
			if d.StageID < 0 || d.StageID >= len(pool) {
				continue
			}
			pool[d.StageID] = append(pool[d.StageID], frames[t][d.Start:d.End]...)
		}
	}
	for id := range p.Catalog {
		if len(pool[id]) == 0 {
			continue
		}
		p.Catalog[id].Mean = resources.Mean(pool[id])
		p.Catalog[id].Peak = sustainedPeak(pool[id])
	}
}

// prune merges rarely observed signatures (boundary and noise artifacts)
// into the established stage with the nearest mean demand. This keeps the
// catalog within the paper's empirical bound of ~2N stage types for N
// clusters (Section IV-A2).
func (p *Profile) prune() {
	totalExec := 0
	for _, s := range p.Catalog[1:] {
		totalExec += s.Count
	}
	if totalExec < 10 {
		return
	}
	const minCount = 2
	kept := []StageSig{p.Catalog[LoadingStageID]}
	var rare []StageSig
	for _, s := range p.Catalog[1:] {
		if s.Count >= minCount {
			kept = append(kept, s)
		} else {
			rare = append(rare, s)
		}
	}
	if len(kept) == 1 {
		// Every exec signature is rare; keep the most frequent one.
		best := p.Catalog[1]
		for _, s := range p.Catalog[2:] {
			if s.Count > best.Count {
				best = s
			}
		}
		kept = append(kept, best)
		var stillRare []StageSig
		for _, s := range rare {
			if s.ID != best.ID {
				stillRare = append(stillRare, s)
			}
		}
		rare = stillRare
	}
	// Reassign contiguous IDs and rebuild the index.
	oldToNew := map[int]int{LoadingStageID: LoadingStageID}
	newIndex := map[string]int{"loading": LoadingStageID}
	for i := range kept {
		oldToNew[kept[i].ID] = i
		kept[i].ID = i
		if !kept[i].Loading {
			newIndex[Key(kept[i].ClusterSet)] = i
		}
	}
	// Rare signatures alias to the nearest kept stage by mean demand, and
	// their statistics fold into it.
	for _, r := range rare {
		best, bestD := 1, r.Mean.Dist2(kept[1].Mean)
		for i := 2; i < len(kept); i++ {
			if d := r.Mean.Dist2(kept[i].Mean); d < bestD {
				best, bestD = i, d
			}
		}
		newIndex[Key(r.ClusterSet)] = best
		tgt := &kept[best]
		n, m := float64(tgt.Count), float64(r.Count)
		tgt.Mean = tgt.Mean.Scale(n / (n + m)).Add(r.Mean.Scale(m / (n + m)))
		tgt.Peak = tgt.Peak.Max(r.Peak)
		tgt.MeanDurFrames = (tgt.MeanDurFrames*n + r.MeanDurFrames*m) / (n + m)
		tgt.Count += r.Count
	}
	p.Catalog = kept
	p.sigIndex = newIndex
}

// sustainedPeak returns the per-dimension 90th percentile over a segment's
// frames: the ⌈0.9n⌉-th smallest value of each column, found by selection.
// An order statistic is one value whichever algorithm finds it, so this is
// the element a full sort of the column would put at that index.
func sustainedPeak(seg []resources.Vector) resources.Vector {
	var out resources.Vector
	if len(seg) == 0 {
		return out
	}
	vals := make([]float64, len(seg))
	idx := (len(vals)*9 + 9) / 10 // ceil(0.9*n)
	if idx > 0 {
		idx--
	}
	for d := resources.Dim(0); d < resources.NumDims; d++ {
		for i, f := range seg {
			vals[i] = f[d]
		}
		out[d] = selectKth(vals, idx)
	}
	return out
}

// selectKth returns the k-th smallest element of a (0-based), reordering a.
// It is quickselect with a median-of-three pivot and a three-way partition,
// so runs of equal values — a flat loading stage — end in one step.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
		}
		if x > y {
			y = x
		}
		pivot := y
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	return a[lo]
}

// loadingCluster identifies which fitted cluster is the loading one: the
// centroid with the lowest GPU utilization (loading screens do not render —
// Observation 3).
func loadingCluster(res *cluster.Result) int {
	best, bestGPU := 0, resources.Vector{}[0]
	bestGPU = res.Centroids[0][resources.GPU]
	for i, c := range res.Centroids[1:] {
		if c[resources.GPU] < bestGPU {
			best, bestGPU = i+1, c[resources.GPU]
		}
	}
	return best
}

// ClassifyFrame returns the fitted cluster ID nearest to the frame vector.
func (p *Profile) ClassifyFrame(v resources.Vector) int { return p.Clusters.Nearest(v) }

// IsLoadingFrame reports whether the frame classifies into the loading
// cluster — the paper's real-time stage separator.
func (p *Profile) IsLoadingFrame(v resources.Vector) bool {
	return p.ClassifyFrame(v) == p.LoadingClusterID
}

// DetectStages segments a frame sequence into alternating loading and
// execution stages, labeling each execution stage with its catalog ID (or -1
// for a signature never absorbed into the catalog).
func (p *Profile) DetectStages(frames []resources.Vector) []Detected {
	labels := make([]int, len(frames))
	for i, f := range frames {
		labels[i] = p.ClassifyFrame(f)
	}
	out, _ := p.detect(frames, labels)
	return out
}

// detect is DetectStages over frames already classified into labels. It
// also returns each execution stage's signature (nil for loading), from
// which its StageID was looked up.
func (p *Profile) detect(frames []resources.Vector, labels []int) ([]Detected, [][]int) {
	out := p.segment(labels)
	sets := make([][]int, len(out))
	for i := range out {
		d := &out[i]
		seg := frames[d.Start:d.End]
		d.Mean = resources.Mean(seg)
		d.Peak = sustainedPeak(seg)
		if d.Loading {
			d.StageID = LoadingStageID
			continue
		}
		sets[i] = p.signatureOf(labels[d.Start:d.End])
		d.StageID = p.stageID(sets[i])
	}
	return out, sets
}

// segment splits a classified frame sequence into runs of loading and
// execution frames, then removes single-frame "loading" runs between two
// execution runs: every game's real loading takes at least two detection
// frames (loading times are 10 s and up), so a lone loading-classified frame
// inside execution is a sub-frame dip (a menu pause, a black-screen cutscene
// moment) interrupting one ongoing stage. Merging keeps transient dips from
// minting spurious stage transitions in training data. Runs alternate and
// a merge yields an execution run, so one left-to-right pass merges every
// dip a rescan after each merge would.
func (p *Profile) segment(labels []int) []Detected {
	var runs []Detected
	for i := 0; i < len(labels); {
		loading := labels[i] == p.LoadingClusterID
		j := i + 1
		for j < len(labels) && (labels[j] == p.LoadingClusterID) == loading {
			j++
		}
		runs = append(runs, Detected{Start: i, End: j, Loading: loading})
		i = j
	}
	out := make([]Detected, 0, len(runs))
	for i := 0; i < len(runs); i++ {
		if r := runs[i]; r.Loading && r.Frames() == 1 && i > 0 && i+1 < len(runs) {
			out[len(out)-1].End = runs[i+1].End
			i++ // the execution run after the dip is merged too
			continue
		}
		out = append(out, runs[i])
	}
	return out
}

// signatureOf computes the filtered cluster set of an execution segment from
// its frames' cluster labels, in ascending cluster order.
func (p *Profile) signatureOf(labels []int) []int {
	var counts [MaxClusters]int
	for _, c := range labels {
		counts[c]++
	}
	// A cluster joins the signature only with sustained presence; brief
	// appearances are spikes or misclassified boundary frames, which must
	// not mint artifact multi-cluster stage types.
	minCount := int(p.minShare * float64(len(labels)))
	if minCount < 1 {
		minCount = 1
	}
	var set []int
	for c, n := range counts {
		if c == p.LoadingClusterID {
			continue // stray loading-like frames inside a stage are noise
		}
		if n >= minCount {
			set = append(set, c)
		}
	}
	if len(set) == 0 {
		// Degenerate segment: keep its most frequent cluster, the lowest
		// cluster ID among ties.
		best := 0
		for c, n := range counts {
			if n > counts[best] {
				best = c
			}
		}
		set = append(set, best)
	}
	return set
}

// stageID looks a signature up in the catalog, -1 when it was never
// absorbed.
func (p *Profile) stageID(set []int) int {
	if id, ok := p.sigIndex[Key(set)]; ok {
		return id
	}
	return -1
}

// absorb folds one detected stage occurrence, with its signature, into the
// catalog, creating a new signature when needed and updating running
// statistics.
func (p *Profile) absorb(d Detected, set []int) {
	if d.Loading {
		s := &p.Catalog[LoadingStageID]
		s.update(d)
		return
	}
	key := Key(set)
	id, ok := p.sigIndex[key]
	if !ok {
		id = len(p.Catalog)
		p.sigIndex[key] = id
		p.Catalog = append(p.Catalog, StageSig{ID: id, ClusterSet: set})
	}
	p.Catalog[id].update(d)
}

// update folds one occurrence into a signature's running statistics.
func (s *StageSig) update(d Detected) {
	n := float64(s.Count)
	s.Mean = s.Mean.Scale(n / (n + 1)).Add(d.Mean.Scale(1 / (n + 1)))
	s.Peak = s.Peak.Max(d.Peak)
	s.MeanDurFrames = (s.MeanDurFrames*n + float64(d.Frames())) / (n + 1)
	s.Count++
}

// NumStageTypes returns the catalog size including the loading stage — the
// quantity reported in Table I.
func (p *Profile) NumStageTypes() int { return len(p.Catalog) }

// Stage returns the catalog entry with the given ID.
func (p *Profile) Stage(id int) (StageSig, bool) {
	if id < 0 || id >= len(p.Catalog) {
		return StageSig{}, false
	}
	return p.Catalog[id], true
}

// StageByClusters returns the catalog ID for a cluster set, or false when
// the combination was never observed.
func (p *Profile) StageByClusters(set []int) (int, bool) {
	sorted := append([]int(nil), set...)
	sort.Ints(sorted)
	id, ok := p.sigIndex[Key(sorted)]
	return id, ok
}

// CandidateStages returns the catalog IDs of execution stages whose cluster
// set contains the given cluster, most-observed first. The online detector
// uses it to shortlist which stage a game just entered from its first frame.
func (p *Profile) CandidateStages(clusterID int) []int {
	var ids []int
	for _, s := range p.Catalog {
		if s.Loading {
			continue
		}
		for _, c := range s.ClusterSet {
			if c == clusterID {
				ids = append(ids, s.ID)
				break
			}
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return p.Catalog[ids[a]].Count > p.Catalog[ids[b]].Count
	})
	return ids
}

// PeakDemand returns the component-wise maximum demand over the whole
// catalog — the game's peak consumption M of Eq. 1.
func (p *Profile) PeakDemand() resources.Vector { return p.peak }

// catalogPeak folds the catalog's sustained peaks.
func (p *Profile) catalogPeak() resources.Vector {
	var peak resources.Vector
	for _, s := range p.Catalog {
		peak = peak.Max(s.Peak)
	}
	return peak
}
