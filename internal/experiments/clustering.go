package experiments

import (
	"fmt"
	"strings"

	"cocg/internal/cluster"
	"cocg/internal/profiler"
	"cocg/internal/resources"
)

// StageTypeRow describes one discovered stage type of a game (Figs. 5b/6b:
// "stage types by clustering").
type StageTypeRow struct {
	ID         int
	ClusterSet []int
	Count      int
	MeanDurSec float64
	MeanDemand resources.Vector
	PeakDemand resources.Vector
	Loading    bool
}

// ClusteringResult reproduces Fig. 5 (CSGO) or Fig. 6 (Devil May Cry): the
// frame clusters of a game and the stage types composed from them.
type ClusteringResult struct {
	Game      string
	K         int
	Centroids []resources.Vector
	Loading   int // loading cluster ID
	Stages    []StageTypeRow
}

// StageTypesOf runs the frame-clustering pass of Section IV-A2 for a single
// game and reports its stage-type catalog.
func StageTypesOf(ctx *Context, game string) (*ClusteringResult, error) {
	b, ok := ctx.System.Bundle(game)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown game %q", game)
	}
	p := b.Profile
	out := &ClusteringResult{
		Game:      game,
		K:         p.Clusters.K(),
		Centroids: p.Clusters.Centroids,
		Loading:   p.LoadingClusterID,
	}
	for _, s := range p.Catalog {
		out.Stages = append(out.Stages, StageTypeRow{
			ID:         s.ID,
			ClusterSet: s.ClusterSet,
			Count:      s.Count,
			MeanDurSec: s.MeanDurFrames * 5,
			MeanDemand: s.Mean,
			PeakDemand: s.Peak,
			Loading:    s.Loading,
		})
	}
	return out, nil
}

// Fig5 reproduces the CSGO stage-type clustering.
func Fig5(ctx *Context) (*ClusteringResult, error) { return StageTypesOf(ctx, "CSGO") }

// Fig6 reproduces the Devil May Cry stage-type clustering.
func Fig6(ctx *Context) (*ClusteringResult, error) { return StageTypesOf(ctx, "Devil May Cry") }

// String renders the clustering result.
func (r *ClusteringResult) String() string {
	ct := &table{title: fmt.Sprintf("Stage types of %s by clustering (K=%d, loading cluster %d)", r.Game, r.K, r.Loading),
		header: []string{"cluster", "centroid"}}
	for i, c := range r.Centroids {
		mark := ""
		if i == r.Loading {
			mark = " (loading)"
		}
		ct.add(fmt.Sprintf("%d%s", i, mark), c.String())
	}
	st := &table{header: []string{"stage", "clusters", "occurrences", "mean dur (s)", "mean demand", "sustained peak"}}
	for _, s := range r.Stages {
		name := fmt.Sprint(s.ID)
		if s.Loading {
			name += " (loading)"
		}
		st.add(name, profiler.Key(s.ClusterSet), fmt.Sprint(s.Count), f1(s.MeanDurSec),
			s.MeanDemand.String(), s.PeakDemand.String())
	}
	return ct.String() + st.String()
}

// Fig14Curve is one game's SSE-vs-K sweep.
type Fig14Curve struct {
	Game   string
	Points []cluster.SweepPoint
	Elbow  int
	// PaperK is the cluster count the paper chose for this game.
	PaperK int
}

// Fig14Result reproduces Fig. 14: clustering SSE for K = 1..8 and the
// inflection points that fix each game's cluster count.
type Fig14Result struct {
	Curves []Fig14Curve
}

// Fig14 sweeps K for every game's pooled frame corpus.
func Fig14(ctx *Context) (*Fig14Result, error) {
	paperK := map[string]int{
		"Contra": 2, "CSGO": 4, "Genshin Impact": 4, "DOTA2": 5, "Devil May Cry": 6,
	}
	out := &Fig14Result{}
	for _, game := range ctx.System.Games() {
		b, _ := ctx.System.Bundle(game)
		var frames []resources.Vector
		for _, tr := range b.Corpus {
			frames = append(frames, tr.FrameVectors()...)
		}
		curve, err := cluster.Sweep(frames, 8, ctx.Opt.Seed, ctx.Opt.Jobs)
		if err != nil {
			return nil, err
		}
		out.Curves = append(out.Curves, Fig14Curve{
			Game:   game,
			Points: curve,
			Elbow:  cluster.Elbow(curve, 0.06),
			PaperK: paperK[game],
		})
	}
	return out, nil
}

// String renders the sweep as one row per game.
func (r *Fig14Result) String() string {
	t := &table{title: "Fig. 14: K-means SSE vs K (elbow picks the cluster count)",
		header: []string{"Game", "SSE K=1..8", "elbow", "paper"}}
	for _, c := range r.Curves {
		var sse []string
		for _, p := range c.Points {
			sse = append(sse, fmt.Sprintf("%.0f", p.SSE))
		}
		t.add(c.Game, strings.Join(sse, " "), fmt.Sprint(c.Elbow), fmt.Sprint(c.PaperK))
	}
	return t.String()
}

// GraphPartitionComparison quantifies Section V-D1's claim that K-means
// beats graph partitioning for frame clustering. Each method is scored
// against the simulator's ground-truth cluster labels with the F1 of purity
// (each found cluster is homogeneous) and completeness (each true cluster
// maps to one found cluster) — purity alone would reward the
// over-segmentation threshold-graph methods tend to produce.
type GraphPartitionComparison struct {
	Game          string
	KMeansF1      float64
	GraphF1       float64
	KMeansPurity  float64
	GraphPurity   float64
	TrueClusters  int
	GraphClusters int
	// KMeansScore/GraphScore weight the F1 by parsimony: a method that
	// needs many times the true cluster count is useless for stage-type
	// cataloging, because the signature space grows as 2^K. This is the
	// "accuracy" on the task the clusters exist for.
	KMeansScore float64
	GraphScore  float64
}

// CompareClusterers runs both clustering methods on a game's corpus and
// scores cluster purity against the simulator's ground-truth labels.
func CompareClusterers(ctx *Context, game string) (*GraphPartitionComparison, error) {
	b, ok := ctx.System.Bundle(game)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown game %q", game)
	}
	var frames []resources.Vector
	var truth []int
	for _, tr := range b.Corpus {
		for _, f := range tr.Frames {
			frames = append(frames, f.Demand)
			truth = append(truth, f.Cluster)
		}
	}
	km, err := cluster.KMeans(frames, cluster.Config{K: len(b.Spec.Clusters), Seed: ctx.Opt.Seed})
	if err != nil {
		return nil, err
	}
	gp, err := cluster.GraphPartition(frames)
	if err != nil {
		return nil, err
	}
	kmP, kmC := purity(km.Assign, truth), purity(truth, km.Assign)
	gpP, gpC := purity(gp.Assign, truth), purity(truth, gp.Assign)
	trueK := len(b.Spec.Clusters)
	out := &GraphPartitionComparison{
		Game:          game,
		KMeansF1:      f1score(kmP, kmC),
		GraphF1:       f1score(gpP, gpC),
		KMeansPurity:  kmP,
		GraphPurity:   gpP,
		TrueClusters:  trueK,
		GraphClusters: gp.K(),
	}
	out.KMeansScore = out.KMeansF1 * parsimony(trueK, km.K())
	out.GraphScore = out.GraphF1 * parsimony(trueK, gp.K())
	return out, nil
}

// parsimony penalizes a cluster count far from the true one.
func parsimony(trueK, foundK int) float64 {
	if foundK <= 0 {
		return 0
	}
	r := float64(trueK) / float64(foundK)
	if r > 1 {
		r = 1 / r
	}
	return r
}

// f1score is the harmonic mean of purity and completeness.
func f1score(p, c float64) float64 {
	if p+c == 0 {
		return 0
	}
	return 2 * p * c / (p + c)
}

// purity maps each predicted cluster to its majority true label and scores
// the fraction of points covered.
func purity(assign, truth []int) float64 {
	votes := map[int]map[int]int{}
	for i, a := range assign {
		if votes[a] == nil {
			votes[a] = map[int]int{}
		}
		votes[a][truth[i]]++
	}
	correct := 0
	for _, v := range votes {
		best := 0
		for _, n := range v {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}

// String renders the comparison.
func (r *GraphPartitionComparison) String() string {
	return fmt.Sprintf("%s: k-means score %s (F1 %s, K=%d) vs graph partitioning score %s (F1 %s, K=%d of %d true)",
		r.Game, pct(r.KMeansScore), pct(r.KMeansF1), r.TrueClusters,
		pct(r.GraphScore), pct(r.GraphF1), r.GraphClusters, r.TrueClusters)
}
