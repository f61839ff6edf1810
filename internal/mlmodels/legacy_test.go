package mlmodels

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"cocg/internal/lazyrand"
)

// The legacy trainer: the original CART builders, which re-sort every
// candidate feature at every node and grow pointer trees, kept as the oracle
// the pre-sorted trainer (fit.go) must reproduce byte for byte — the golden
// suite (fit_test.go) and FuzzFitMatchesLegacy compare against it, and the
// *FitLegacy benchmarks measure the "before". An oracle serializes through
// the original pointer flatten, so equal bytes also check the arena encoder.

// treeNode is one node of a CART tree; leaves have feature == -1.
type treeNode struct {
	feature   int     // split feature, -1 for leaf
	threshold float64 // go left when x[feature] <= threshold
	left      *treeNode
	right     *treeNode
	label     int     // classification leaf output
	value     float64 // regression leaf output (GBDT)
}

func (n *treeNode) isLeaf() bool { return n.feature == -1 }

// leafOf is the pointer walk: the leaf x lands in.
func leafOf(n *treeNode, x []float64) *treeNode {
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// oracle is a model the legacy builders grew: its pointer trees (GBDT's
// round-major, then class) and what its serialized form carries.
type oracle struct {
	kind          string
	trees         []*treeNode
	nfeat, nclass int
	prior         []float64 // GBDT
	lr            float64   // GBDT
	oob           float64   // RF
}

// MarshalJSON writes the oracle in the models' wire format.
func (o *oracle) MarshalJSON() ([]byte, error) {
	switch o.kind {
	case "DTC":
		return json.Marshal(dtcDTO{Tree: toTreeDTO(o.trees[0]), NFeat: o.nfeat})
	case "RF":
		d := rfDTO{NFeat: o.nfeat, NClass: o.nclass}
		for _, tr := range o.trees {
			d.Trees = append(d.Trees, toTreeDTO(tr))
		}
		return json.Marshal(d)
	}
	d := gbdtDTO{Prior: o.prior, NFeat: o.nfeat, NClass: o.nclass, LearningRate: o.lr}
	for lo := 0; lo < len(o.trees); lo += o.nclass {
		var r []treeDTO
		for _, tr := range o.trees[lo : lo+o.nclass] {
			r = append(r, toTreeDTO(tr))
		}
		d.Rounds = append(d.Rounds, r)
	}
	return json.Marshal(d)
}

// predict is the oracle's prediction by pointer walks: the DTC leaf, the RF
// vote (ties to the lower class) or the GBDT score argmax, accumulated
// round-major then class.
func (o *oracle) predict(x []float64) int {
	switch o.kind {
	case "DTC":
		return leafOf(o.trees[0], x).label
	case "RF":
		votes := make([]int, o.nclass)
		for _, tr := range o.trees {
			votes[leafOf(tr, x).label]++
		}
		best, bestN := 0, -1
		for c, v := range votes {
			if v > bestN {
				best, bestN = c, v
			}
		}
		return best
	}
	scores := append([]float64(nil), o.prior...)
	for i, tr := range o.trees {
		scores[i%o.nclass] += o.lr * leafOf(tr, x).value
	}
	best, bestS := 0, math.Inf(-1)
	for c, s := range scores {
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

// flatten appends the subtree rooted at n and returns its index.
func flatten(n *treeNode, out *[]nodeDTO) int {
	if n == nil {
		return -1
	}
	idx := len(*out)
	*out = append(*out, nodeDTO{}) // reserve
	dto := nodeDTO{
		Feature:   n.feature,
		Threshold: n.threshold,
		Label:     n.label,
		Value:     n.value,
		Left:      -1,
		Right:     -1,
	}
	dto.Left = flatten(n.left, out)
	dto.Right = flatten(n.right, out)
	(*out)[idx] = dto
	return idx
}

func toTreeDTO(root *treeNode) treeDTO {
	var nodes []nodeDTO
	flatten(root, &nodes)
	return treeDTO{Nodes: nodes}
}

// fitLegacy grows the tree with the original per-node sorting builder.
func (t *DecisionTree) fitLegacy(ds *Dataset) (*oracle, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	root := buildClassTree(ds, idx, t.cfg, 0, rng)
	return &oracle{kind: "DTC", trees: []*treeNode{root}, nfeat: ds.NumFeatures, nclass: ds.NumClasses}, nil
}

// fitLegacy grows the forest with the original builder that re-sorts every
// feature at every node.
func (f *RandomForest) fitLegacy(ds *Dataset) (*oracle, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	treeCfg := f.cfg.Tree
	if treeCfg.FeatureSubset <= 0 {
		treeCfg.FeatureSubset = int(math.Sqrt(float64(ds.NumFeatures)))
		if treeCfg.FeatureSubset < 1 {
			treeCfg.FeatureSubset = 1
		}
	}
	n := ds.Len()
	seeds := make([]int64, f.cfg.NumTrees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	trees := make([]*treeNode, f.cfg.NumTrees)
	oobPred := make([][]int32, f.cfg.NumTrees)
	for t, seed := range seeds {
		treeRNG := rand.New(lazyrand.NewSource(seed))
		inBag := make([]bool, n)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = treeRNG.Intn(n)
			inBag[idx[i]] = true
		}
		tree := buildClassTree(ds, idx, treeCfg, 0, treeRNG)
		trees[t] = tree
		pred := make([]int32, n)
		for i, s := range ds.Samples {
			if inBag[i] {
				pred[i] = -1
				continue
			}
			pred[i] = int32(leafOf(tree, s.Features).label)
		}
		oobPred[t] = pred
	}
	return &oracle{kind: "RF", trees: trees, nfeat: ds.NumFeatures, nclass: ds.NumClasses,
		oob: oobAccuracy(ds, oobPred)}, nil
}

// fitLegacy boosts with the original builder that re-sorts every feature at
// every node and round.
func (g *GBDT) fitLegacy(ds *Dataset) (*oracle, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	n := ds.Len()
	k, scores := g.initBoost(ds)
	rng := rand.New(rand.NewSource(g.cfg.Seed))

	trees := make([]*treeNode, 0, g.cfg.NumRounds*k)
	kf := float64(k)
	leaf := func(rows []regTarget) float64 {
		var num, den float64
		for _, r := range rows {
			num += r.target
			a := math.Abs(r.target)
			den += a * (1 - a)
		}
		if den < 1e-12 {
			return 0
		}
		return (kf - 1) / kf * num / den
	}
	residuals := make([][]regTarget, k)
	for c := range residuals {
		residuals[c] = make([]regTarget, n)
	}
	for round := 0; round < g.cfg.NumRounds; round++ {
		probs := make([]float64, k)
		for i := 0; i < n; i++ {
			softmaxInto(scores[i], probs)
			for c := 0; c < k; c++ {
				y := 0.0
				if ds.Samples[i].Label == c {
					y = 1.0
				}
				residuals[c][i] = regTarget{idx: i, target: y - probs[c]}
			}
		}
		seeds := make([]int64, k)
		for c := range seeds {
			seeds[c] = rng.Int63()
		}
		roundTrees := make([]*treeNode, k)
		for c, seed := range seeds {
			classRNG := rand.New(lazyrand.NewSource(seed))
			roundTrees[c] = buildRegTree(ds, residuals[c], g.cfg.Tree, 0, classRNG, leaf)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < k; c++ {
				scores[i][c] += g.cfg.LearningRate * leafOf(roundTrees[c], ds.Samples[i].Features).value
			}
		}
		trees = append(trees, roundTrees...)
	}
	return &oracle{kind: "GBDT", trees: trees, nfeat: ds.NumFeatures, nclass: k,
		prior: g.prior, lr: g.cfg.LearningRate}, nil
}

// buildClassTree grows a classification tree on the rows in idx.
func buildClassTree(ds *Dataset, idx []int, cfg TreeConfig, d int, rng *rand.Rand) *treeNode {
	if d >= cfg.MaxDepth || len(idx) < minSamplesSplit || pureLabels(ds.Samples, idx) {
		return &treeNode{feature: -1, label: majorityLabel(ds.Samples, idx, ds.NumClasses)}
	}
	feat, thr, ok := bestGiniSplit(ds, idx, cfg, rng)
	if !ok {
		return &treeNode{feature: -1, label: majorityLabel(ds.Samples, idx, ds.NumClasses)}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if ds.Samples[i].Features[feat] <= thr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{feature: -1, label: majorityLabel(ds.Samples, idx, ds.NumClasses)}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      buildClassTree(ds, leftIdx, cfg, d+1, rng),
		right:     buildClassTree(ds, rightIdx, cfg, d+1, rng),
	}
}

func pureLabels(samples []Sample, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := samples[idx[0]].Label
	for _, i := range idx[1:] {
		if samples[i].Label != first {
			return false
		}
	}
	return true
}

// giniVals sorts the classification scan's (value, label) pairs by value
// through typed methods instead of sort.Slice's reflection-based swapper.
// The sort may stay unstable: every statistic the scan derives from a run
// of equal values is an integer class count over the run's multiset, so
// any permutation within a tie run yields the same split.
type giniVal struct {
	v     float64
	label int
}

type giniVals []giniVal

func (s giniVals) Len() int           { return len(s) }
func (s giniVals) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s giniVals) Less(i, j int) bool { return s[i].v < s[j].v }

// bestGiniSplit scans candidate features for the split with the lowest
// weighted Gini impurity.
func bestGiniSplit(ds *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) (feat int, thr float64, ok bool) {
	features := candidateFeatures(ds.NumFeatures, cfg.FeatureSubset, rng)
	bestScore := math.Inf(1)
	vals := make(giniVals, 0, len(idx))
	for _, f := range features {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, giniVal{ds.Samples[i].Features[f], ds.Samples[i].Label})
		}
		sort.Sort(vals)

		// Incremental class counts for left/right partitions.
		leftCounts := make([]int, ds.NumClasses)
		rightCounts := make([]int, ds.NumClasses)
		for _, x := range vals {
			rightCounts[x.label]++
		}
		n := float64(len(vals))
		for i := 0; i < len(vals)-1; i++ {
			leftCounts[vals[i].label]++
			rightCounts[vals[i].label]--
			if vals[i].v == vals[i+1].v {
				continue // cannot split between equal values
			}
			nl := float64(i + 1)
			nr := n - nl
			score := nl/n*gini(leftCounts, nl) + nr/n*gini(rightCounts, nr)
			if score < bestScore {
				bestScore = score
				feat = f
				thr = (vals[i].v + vals[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func gini(counts []int, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / n
		g -= p * p
	}
	return g
}

// candidateFeatures returns the features a split may use: all of them, or a
// random subset of size m (without replacement) for Random Forest trees.
func candidateFeatures(nf, m int, rng *rand.Rand) []int {
	all := make([]int, nf)
	for i := range all {
		all[i] = i
	}
	if m <= 0 || m >= nf {
		return all
	}
	rng.Shuffle(nf, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:m]
}

// --- regression tree (used by GBDT) ---

// regTarget pairs a row index with its regression target.
type regTarget struct {
	idx    int
	target float64
}

// buildRegTree grows a regression tree minimizing squared error over the
// given targets; leafValue computes the leaf output from the targets that
// reach it (GBDT uses a Newton step rather than the plain mean).
func buildRegTree(ds *Dataset, rows []regTarget, cfg TreeConfig, d int,
	rng *rand.Rand, leafValue func([]regTarget) float64) *treeNode {

	if d >= cfg.MaxDepth || len(rows) < minSamplesSplit || constantTargets(rows) {
		return &treeNode{feature: -1, value: leafValue(rows)}
	}
	feat, thr, ok := bestMSESplit(ds, rows, cfg, rng)
	if !ok {
		return &treeNode{feature: -1, value: leafValue(rows)}
	}
	var left, right []regTarget
	for _, r := range rows {
		if ds.Samples[r.idx].Features[feat] <= thr {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{feature: -1, value: leafValue(rows)}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      buildRegTree(ds, left, cfg, d+1, rng, leafValue),
		right:     buildRegTree(ds, right, cfg, d+1, rng, leafValue),
	}
}

func constantTargets(rows []regTarget) bool {
	if len(rows) == 0 {
		return true
	}
	first := rows[0].target
	for _, r := range rows[1:] {
		if r.target != first {
			return false
		}
	}
	return true
}

// mseVals sorts the regression scan's (value, target) pairs by value. It is
// sorted with sort.Stable, and that stability is load-bearing: the scan
// folds float targets in sorted order, so the order WITHIN a run of equal
// values is observable in the split scores. Stable sorting pins that tie
// order to the node-row insertion order — the same (value, then row
// position) total order the pre-sorted trainer's column index uses — which
// is what makes byte-identical equivalence between the two builders
// provable. The previous unstable sort.Slice left tie runs in whatever
// permutation pdqsort produced.
type mseVals []mseVal

type mseVal struct {
	v, t float64
}

func (s mseVals) Len() int           { return len(s) }
func (s mseVals) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s mseVals) Less(i, j int) bool { return s[i].v < s[j].v }

// bestMSESplit finds the split minimizing the within-partition sum of squared
// deviations, computed incrementally from running sums.
func bestMSESplit(ds *Dataset, rows []regTarget, cfg TreeConfig, rng *rand.Rand) (feat int, thr float64, ok bool) {
	features := candidateFeatures(ds.NumFeatures, cfg.FeatureSubset, rng)
	bestScore := math.Inf(1)
	vals := make(mseVals, 0, len(rows))
	var totalSum, totalSum2 float64
	for _, r := range rows {
		totalSum += r.target
		totalSum2 += r.target * r.target
	}
	n := float64(len(rows))
	for _, f := range features {
		vals = vals[:0]
		for _, r := range rows {
			vals = append(vals, mseVal{ds.Samples[r.idx].Features[f], r.target})
		}
		sort.Stable(vals)
		var ls, ls2 float64
		for i := 0; i < len(vals)-1; i++ {
			ls += vals[i].t
			ls2 += vals[i].t * vals[i].t
			if vals[i].v == vals[i+1].v {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			rs := totalSum - ls
			rs2 := totalSum2 - ls2
			// SSE of each side = sum(t^2) - (sum t)^2 / n.
			score := (ls2 - ls*ls/nl) + (rs2 - rs*rs/nr)
			if score < bestScore {
				bestScore = score
				feat = f
				thr = (vals[i].v + vals[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// majorityLabel returns the most frequent label among idx rows of samples.
func majorityLabel(samples []Sample, idx []int, numClasses int) int {
	counts := make([]int, numClasses)
	for _, i := range idx {
		counts[samples[i].Label]++
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}
