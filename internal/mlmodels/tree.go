package mlmodels

import (
	"math/rand"
	"slices"
)

// TreeConfig controls CART tree induction for both the standalone DTC and
// the trees inside RF and GBDT.
type TreeConfig struct {
	MaxDepth int // depth cap; <=0 means 12
	// FeatureSubset, when > 0, samples that many candidate features per
	// split (Random Forest style). 0 considers all features.
	FeatureSubset int
	Seed          int64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	return c
}

// minSamplesSplit is the fewest rows a node needs to attempt a split.
const minSamplesSplit = 2

// DecisionTree is the paper's DTC: a CART classifier split on Gini impurity.
type DecisionTree struct {
	cfg    TreeConfig
	nodes  []flatNode // the fitted tree in preorder, root at 0 (see flat.go)
	nfeat  int
	fitted bool
	// fit is the reusable pre-sorted training arena (see fit.go); it is
	// lazily created on first Fit and never serialized.
	fit *fitScratch
}

// NewDecisionTree returns an unfitted decision tree classifier.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{cfg: cfg.withDefaults()}
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "DTC" }

// Fit implements Classifier. Training runs on the pre-sorted column index
// (fit.go): each feature is sorted once, nodes grow by linear scans into the
// scratch node buffer, and the scratch is reused across refits; the fitted
// tree is a fresh copy of that buffer. It is byte-identical to the legacy
// per-node-sorting builder (the tests' oracle).
func (t *DecisionTree) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
	}
	if t.fit == nil {
		t.fit = &fitScratch{}
	}
	ts := t.fit.prepare(ds, t.cfg.MaxDepth)
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	ts.beginFull()
	ts.growClass(t.cfg, rng, 0, ts.m, ts.m, 0, nil)
	t.nodes = slices.Clone(ts.nodes)
	t.nfeat = ds.NumFeatures
	t.fitted = true
	return nil
}

// Predict implements Classifier with an iterative walk over the arena; it
// allocates nothing.
func (t *DecisionTree) Predict(x []float64) (int, error) {
	if !t.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != t.nfeat {
		return 0, ErrBadFeatureLen
	}
	return int(flatLeaf(t.nodes, 0, x).label), nil
}

// Depth returns the depth of the fitted tree (a single leaf has depth 1);
// useful for overhead experiments.
func (t *DecisionTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return treeDepth(t.nodes, 0)
}
