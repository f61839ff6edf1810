package mlmodels

import (
	"math"
	"math/rand"

	"cocg/internal/lazyrand"
	"cocg/internal/parallel"
)

// ForestConfig controls Random Forest training.
type ForestConfig struct {
	NumTrees int // number of bagged trees; <=0 means 50
	Tree     TreeConfig
	Seed     int64
	// Workers bounds the goroutines used to train trees; <= 0 means
	// GOMAXPROCS. Each tree derives its own RNG from a seed drawn serially
	// from the master seed before the fan-out, so the fitted forest is
	// identical at every worker count.
	Workers int
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 50
	}
	c.Tree = c.Tree.withDefaults()
	return c
}

// RandomForest is the paper's RF predictor: bagged CART trees with random
// feature subsets at every split, majority vote at prediction time.
type RandomForest struct {
	cfg ForestConfig
	// trees holds the pointer trees (serialization source of truth);
	// prediction walks the shared flat arena instead.
	trees  []*treeNode
	flat   []flatNode // all member trees compiled contiguously
	roots  []int32    // arena offset of each member tree's root
	nfeat  int
	nclass int
	fitted bool
	// oob is the out-of-bag accuracy estimated during Fit: each sample is
	// scored only by trees whose bootstrap missed it, giving a held-out
	// quality estimate without sacrificing training data.
	oob float64
	// fit is the reusable pre-sorted training arena (see fit.go): one
	// column index shared by every bagged tree plus a free list of
	// per-worker tree scratches. Lazily created, never serialized.
	fit *fitScratch
}

// OOBAccuracy returns the out-of-bag accuracy estimate from the last Fit,
// or -1 when no sample was ever out of bag (tiny datasets).
func (f *RandomForest) OOBAccuracy() float64 {
	if !f.fitted {
		return -1
	}
	return f.oob
}

// NewRandomForest returns an unfitted random forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	return &RandomForest{cfg: cfg.withDefaults()}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "RF" }

// Fit implements Classifier. Training runs on the pre-sorted column index
// (fit.go): the dataset is indexed once, each bagged tree compacts the
// shared index down to its bootstrap rows (multiplicities become per-row
// weights), and tree workers draw reusable scratches from a free list. The
// fitted forest — trees and OOB estimate — is byte-identical to the legacy
// per-node-sorting builder (fitLegacy) at every worker count.
func (f *RandomForest) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
	}
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	treeCfg := f.cfg.Tree
	if treeCfg.FeatureSubset <= 0 {
		// The standard default: sqrt(#features) candidates per split.
		treeCfg.FeatureSubset = int(math.Sqrt(float64(ds.NumFeatures)))
		if treeCfg.FeatureSubset < 1 {
			treeCfg.FeatureSubset = 1
		}
	}
	// The bagged trees own the worker budget; each member tree scans its
	// features serially.
	treeCfg.Workers = 1
	n := ds.Len()
	// Draw every tree's seed serially from the master RNG before fanning
	// out, so the forest is a pure function of cfg.Seed regardless of how
	// many workers train it.
	seeds := make([]int64, f.cfg.NumTrees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	if f.fit == nil {
		f.fit = &fitScratch{}
	}
	scratches := parallel.Workers(f.cfg.Workers)
	if scratches > f.cfg.NumTrees {
		scratches = f.cfg.NumTrees
	}
	f.fit.prepare(ds, f.cfg.Workers, scratches, 1, treeCfg.MaxDepth)
	f.trees = make([]*treeNode, f.cfg.NumTrees)
	// oobPred[t][i] is tree t's prediction for sample i when the bootstrap
	// missed it, or -1 when sample i was in tree t's bag.
	oobPred := make([][]int32, f.cfg.NumTrees)
	parallel.For(f.cfg.Workers, f.cfg.NumTrees, func(t int) {
		treeRNG := rand.New(lazyrand.NewSource(seeds[t]))
		ts := <-f.fit.free
		// Bootstrap sample with replacement: the same n draws the legacy
		// builder makes, recorded as per-row multiplicities instead of a
		// duplicated index slice. The root's total weight is n.
		w := ts.w[:n]
		for r := range w {
			w[r] = 0
		}
		for i := 0; i < n; i++ {
			w[treeRNG.Intn(n)]++
		}
		ts.beginBag()
		tree := ts.growClass(treeCfg, treeRNG, 0, ts.m, n, 0, nil)
		// OOB predictions read ts.w (the in-bag marks), so they run before
		// the scratch goes back to the free list. The walk runs over a
		// flat compile of the fresh tree (reusing the scratch's arena
		// buffer) — same tree, same predictions, contiguous nodes.
		ts.oobFlat = ts.oobFlat[:0]
		appendFlat(&ts.oobFlat, tree)
		pred := make([]int32, n)
		for i, s := range ds.Samples {
			if ts.w[i] > 0 {
				pred[i] = -1
				continue
			}
			pred[i] = flatLeaf(ts.oobFlat, 0, s.Features).label
		}
		f.fit.free <- ts
		f.trees[t] = tree
		oobPred[t] = pred
	})
	f.finishFit(ds, oobPred)
	return nil
}

// finishFit aggregates the per-tree OOB predictions into the forest's OOB
// accuracy and compiles the flat inference arena — the tail both Fit and
// fitLegacy share.
func (f *RandomForest) finishFit(ds *Dataset, oobPred [][]int32) {
	n := ds.Len()
	// oobVotes[i][c] counts class-c votes for sample i from trees that did
	// not see it; integer accumulation, so merge order is irrelevant.
	oobVotes := make([][]int, n)
	for i := range oobVotes {
		oobVotes[i] = make([]int, ds.NumClasses)
	}
	for _, pred := range oobPred {
		for i, p := range pred {
			if p >= 0 {
				oobVotes[i][p]++
			}
		}
	}
	var correct, scored int
	for i, votes := range oobVotes {
		best, bestN, total := 0, -1, 0
		for c, v := range votes {
			total += v
			if v > bestN {
				best, bestN = c, v
			}
		}
		if total == 0 {
			continue
		}
		scored++
		if best == ds.Samples[i].Label {
			correct++
		}
	}
	if scored > 0 {
		f.oob = float64(correct) / float64(scored)
	} else {
		f.oob = -1
	}
	f.flat, f.roots = compileForest(f.trees)
	f.nfeat = ds.NumFeatures
	f.nclass = ds.NumClasses
	f.fitted = true
}

// fitLegacy is the pre-sorted trainer's reference implementation: the
// original builder that re-sorts every feature at every node, retained for
// the golden equivalence suite and the recorded before/after benchmarks.
func (f *RandomForest) fitLegacy(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
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
	f.trees = make([]*treeNode, f.cfg.NumTrees)
	oobPred := make([][]int32, f.cfg.NumTrees)
	parallel.For(f.cfg.Workers, f.cfg.NumTrees, func(t int) {
		treeRNG := rand.New(lazyrand.NewSource(seeds[t]))
		inBag := make([]bool, n)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = treeRNG.Intn(n)
			inBag[idx[i]] = true
		}
		tree := buildClassTree(ds, idx, treeCfg, 0, treeRNG)
		f.trees[t] = tree
		pred := make([]int32, n)
		for i, s := range ds.Samples {
			if inBag[i] {
				pred[i] = -1
				continue
			}
			node := tree
			for !node.isLeaf() {
				if s.Features[node.feature] <= node.threshold {
					node = node.left
				} else {
					node = node.right
				}
			}
			pred[i] = int32(node.label)
		}
		oobPred[t] = pred
	})
	f.finishFit(ds, oobPred)
	return nil
}

// Predict implements Classifier by majority vote over the trees. Votes
// accumulate in a fixed stack buffer, so a call allocates nothing.
func (f *RandomForest) Predict(x []float64) (int, error) {
	if !f.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != f.nfeat {
		return 0, ErrBadFeatureLen
	}
	var buf [scratchClasses]int
	votes := voteScratch(buf[:], f.nclass)
	return f.vote(x, votes), nil
}

// PredictBatch implements BatchPredictor: one vote buffer serves the whole
// batch, so steady-state batch prediction does zero allocation.
func (f *RandomForest) PredictBatch(xs [][]float64, out []int) error {
	if err := checkBatch(f.fitted, xs, out); err != nil {
		return err
	}
	var buf [scratchClasses]int
	votes := voteScratch(buf[:], f.nclass)
	for i, x := range xs {
		if len(x) != f.nfeat {
			return ErrBadFeatureLen
		}
		for c := range votes {
			votes[c] = 0
		}
		out[i] = f.vote(x, votes)
	}
	return nil
}

// vote casts every member tree's flat-walk vote into votes (zeroed,
// nclass-long) and returns the winning class; ties break toward the lower
// class ID, exactly like the pointer-tree implementation did.
func (f *RandomForest) vote(x []float64, votes []int) int {
	for _, r := range f.roots {
		votes[flatLeaf(f.flat, r, x).label]++
	}
	best, bestN := 0, -1
	for c, v := range votes {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return best
}

// voteScratch slices a zeroed n-class vote buffer out of buf, falling back
// to an allocation for class counts beyond the stack scratch.
func voteScratch(buf []int, n int) []int {
	if n > len(buf) {
		return make([]int, n)
	}
	votes := buf[:n]
	for i := range votes {
		votes[i] = 0
	}
	return votes
}

// predictPointer is the pre-compilation pointer walk, kept as the reference
// implementation for the flat-vs-pointer property tests and benchmarks.
func (f *RandomForest) predictPointer(x []float64) int {
	votes := make([]int, f.nclass)
	for _, t := range f.trees {
		n := t
		for !n.isLeaf() {
			if x[n.feature] <= n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
		votes[n.label]++
	}
	best, bestN := 0, -1
	for c, v := range votes {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return best
}

// NumTrees returns how many trees were trained.
func (f *RandomForest) NumTrees() int { return len(f.trees) }
