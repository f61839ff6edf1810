package mlmodels

import (
	"math"
	"math/rand"
	"slices"

	"cocg/internal/lazyrand"
)

// ForestConfig controls Random Forest training.
type ForestConfig struct {
	NumTrees int // number of bagged trees; <=0 means 50
	Tree     TreeConfig
	// Seed is the master seed; each tree derives its own RNG from a seed
	// drawn from it before any tree grows.
	Seed int64
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
	// fit is the reusable pre-sorted training arena (see fit.go): one
	// column index shared by every bagged tree plus the scratch they grow
	// in. Lazily created, never serialized.
	fit *fitScratch
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
// weights) and grows into the scratch's node buffer behind the trees before
// it. The fitted forest is byte-identical to the legacy per-node-sorting
// builder (the tests' oracle).
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
	n := ds.Len()
	// Every tree's seed is drawn from the master RNG before any tree grows:
	// the legacy builder's draw order, which the exactness contract keeps.
	seeds := make([]int64, f.cfg.NumTrees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	if f.fit == nil {
		f.fit = &fitScratch{}
	}
	ts := f.fit.prepare(ds, treeCfg.MaxDepth)
	roots := make([]int32, f.cfg.NumTrees)
	// One generator for the fit, re-seeded per tree: Seed forgets the whole
	// ring, so each tree draws the stream a fresh source would give it.
	treeRNG := rand.New(lazyrand.NewSource(0))
	for t, seed := range seeds {
		treeRNG.Seed(seed)
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
		roots[t] = ts.growClass(treeCfg, treeRNG, 0, ts.m, n, 0, nil)
	}
	f.nodes, f.roots = slices.Clone(ts.nodes), roots
	f.nfeat = ds.NumFeatures
	f.nclass = ds.NumClasses
	f.fitted = true
	return nil
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
