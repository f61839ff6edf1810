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
	cfg    ForestConfig
	nodes  []flatNode // every member tree in preorder, back to back
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
// weights), and tree workers draw reusable scratches from a free list and
// grow each tree into the scratch's node buffer, where its out-of-bag
// predictions walk it; after the fan-out publish concatenates the trees in
// tree order. The fitted forest — trees and OOB estimate — is byte-identical
// to the legacy per-node-sorting builder (the tests' oracle) at every worker
// count.
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
	refs := make([]treeRef, f.cfg.NumTrees)
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
		root := ts.growClass(treeCfg, treeRNG, 0, ts.m, n, 0, nil)
		// OOB predictions read ts.w (the in-bag marks) and walk the tree
		// where it grew, so they run before the scratch goes back to the
		// free list.
		pred := make([]int32, n)
		for i, s := range ds.Samples {
			if ts.w[i] > 0 {
				pred[i] = -1
				continue
			}
			pred[i] = flatLeaf(ts.nodes, root, s.Features).label
		}
		refs[t] = treeRef{ts: ts, lo: root, hi: int32(len(ts.nodes))}
		f.fit.free <- ts
		oobPred[t] = pred
	})
	f.nodes, f.roots = publish(refs)
	f.oob = oobAccuracy(ds, oobPred)
	f.nfeat = ds.NumFeatures
	f.nclass = ds.NumClasses
	f.fitted = true
	return nil
}

// oobAccuracy aggregates the per-tree OOB predictions (-1 where the tree's
// bag held the sample) into the forest's OOB accuracy, or -1 when no sample
// was ever out of bag.
func oobAccuracy(ds *Dataset, oobPred [][]int32) float64 {
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
	if scored == 0 {
		return -1
	}
	return float64(correct) / float64(scored)
}

// Predict implements Classifier by majority vote over the trees; ties break
// toward the lower class ID. Votes accumulate in a fixed stack buffer, so a
// call allocates nothing.
func (f *RandomForest) Predict(x []float64) (int, error) {
	if !f.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != f.nfeat {
		return 0, ErrBadFeatureLen
	}
	var buf [scratchClasses]int
	votes := buf[:]
	if f.nclass > len(buf) {
		votes = make([]int, f.nclass)
	}
	votes = votes[:f.nclass]
	return f.vote(x, votes), nil
}

// vote casts every member tree's vote into votes (zeroed, nclass-long) and
// returns the winning class. It stays out of line: folded into Predict, the
// walk measured 2–4 % slower (BenchmarkRFPredict, BenchmarkGBDTPredict).
func (f *RandomForest) vote(x []float64, votes []int) int {
	for _, r := range f.roots {
		votes[flatLeaf(f.nodes, r, x).label]++
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
func (f *RandomForest) NumTrees() int { return len(f.roots) }
