package mlmodels

import (
	"math"
	"math/rand"
	"slices"

	"cocg/internal/lazyrand"
)

// GBDTConfig controls gradient-boosted tree training.
type GBDTConfig struct {
	NumRounds    int     // boosting rounds; <=0 means 60
	LearningRate float64 // shrinkage; <=0 means 0.2
	Tree         TreeConfig
	// Seed is the master seed; each round draws one seed per class tree
	// from it before the round's trees grow.
	Seed int64
}

func (c GBDTConfig) withDefaults() GBDTConfig {
	if c.NumRounds <= 0 {
		c.NumRounds = 60
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.2
	}
	if c.Tree.MaxDepth <= 0 {
		c.Tree.MaxDepth = 4 // boosting uses shallow trees
	}
	c.Tree = c.Tree.withDefaults()
	return c
}

// GBDT is the paper's gradient-boosted decision tree classifier: multiclass
// boosting with a softmax objective. Each round fits one regression tree per
// class to the negative gradient (one-hot minus predicted probability) and
// uses the standard Newton leaf value.
type GBDT struct {
	cfg    GBDTConfig
	nodes  []flatNode // every round's class trees in preorder, back to back
	roots  [][]int32  // roots[round][class] arena offsets
	nfeat  int
	nclass int
	prior  []float64 // initial log-odds per class
	fitted bool
	// fit is the reusable pre-sorted training arena (see fit.go): one
	// column index shared by every round's class trees plus the scratch
	// they grow in. Lazily created, never serialized.
	fit *fitScratch
}

// NewGBDT returns an unfitted GBDT classifier.
func NewGBDT(cfg GBDTConfig) *GBDT {
	return &GBDT{cfg: cfg.withDefaults()}
}

// Name implements Classifier.
func (g *GBDT) Name() string { return "GBDT" }

// Fit implements Classifier. Training runs on the pre-sorted column index
// (fit.go): the dataset is indexed once for all rounds (residuals change
// every round, feature order never does), and each round's class trees grow
// by linear scans into the scratch's node buffer behind every earlier tree —
// round-major, then class, the model's own layout — where the round's score
// update walks them. The fitted model is byte-identical to the legacy
// per-node-sorting builder (the tests' oracle).
func (g *GBDT) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
	}
	n := ds.Len()
	k, scores := g.initBoost(ds)
	rng := rand.New(rand.NewSource(g.cfg.Seed))

	kf := float64(k)
	if g.fit == nil {
		g.fit = &fitScratch{}
	}
	ts := g.fit.prepare(ds, g.cfg.Tree.MaxDepth)
	// leaf is the Newton step for the softmax objective:
	// (K-1)/K * sum(r) / sum(|r| * (1-|r|)), folded in stable row order —
	// the same order the legacy builder's rows slices carry.
	leaf := func(rows []int32, tgt []float64) float64 {
		var num, den float64
		for _, r := range rows {
			t := tgt[r]
			num += t
			a := math.Abs(t)
			den += a * (1 - a)
		}
		if den < 1e-12 {
			return 0
		}
		return (kf - 1) / kf * num / den
	}
	// residuals[c][i] is class c's negative gradient for sample i; the row
	// identity that regTarget carried is implicit in the index.
	residuals := make([][]float64, k)
	for c := range residuals {
		residuals[c] = make([]float64, n)
	}
	probs := make([]float64, k)
	seeds := make([]int64, k)
	roots := make([]int32, g.cfg.NumRounds*k) // round-major, then class
	// One generator for the fit, re-seeded per tree: Seed forgets the whole
	// ring, so each tree draws the stream a fresh source would give it.
	classRNG := rand.New(lazyrand.NewSource(0))
	for round := 0; round < g.cfg.NumRounds; round++ {
		// Residuals for every class under the current model.
		for i, s := range ds.Samples {
			softmaxInto(scores[i], probs)
			for c := 0; c < k; c++ {
				y := 0.0
				if s.Label == c {
					y = 1.0
				}
				residuals[c][i] = y - probs[c]
			}
		}
		// One candidate tree per class. The round's seeds are drawn before
		// any of its trees grows: the legacy builder's draw order.
		for c := range seeds {
			seeds[c] = rng.Int63()
		}
		roundRoots := roots[round*k : (round+1)*k]
		for c, seed := range seeds {
			classRNG.Seed(seed)
			ts.beginFull()
			copy(ts.tgt[:n], residuals[c])
			roundRoots[c] = ts.growReg(g.cfg.Tree, classRNG, 0, n, 0, leaf)
		}
		// Update scores with the shrunken tree outputs.
		for i, s := range ds.Samples {
			for c, r := range roundRoots {
				scores[i][c] += g.cfg.LearningRate * flatLeaf(ts.nodes, r, s.Features).leafValue()
			}
		}
	}
	g.nodes, g.roots = slices.Clone(ts.nodes), byRound(roots, k)
	g.nfeat = ds.NumFeatures
	g.nclass = k
	g.fitted = true
	return nil
}

// initBoost computes the Laplace-smoothed log priors and the per-sample
// score matrix both builders (Fit and the tests' oracle) start from.
func (g *GBDT) initBoost(ds *Dataset) (k int, scores [][]float64) {
	n := ds.Len()
	k = ds.NumClasses
	if k < 2 {
		k = 2 // degenerate single-class data still needs a valid softmax
	}
	counts := make([]float64, k)
	for _, s := range ds.Samples {
		counts[s.Label]++
	}
	g.prior = make([]float64, k)
	for c := range g.prior {
		p := (counts[c] + 1) / (float64(n) + float64(k)) // Laplace smoothing
		g.prior[c] = math.Log(p)
	}
	// scores[i][c] is the current raw score of sample i for class c.
	scores = make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, k)
		copy(scores[i], g.prior)
	}
	return k, scores
}

// Predict implements Classifier. Score accumulators live in a fixed stack
// buffer and the trees are walked in the arena, so a call allocates nothing.
// Accumulation order is round-major, then class — the order the legacy
// builder's model used — so the floating-point scores, and the argmax, are
// byte-identical to it.
//
//cocg:hot
func (g *GBDT) Predict(x []float64) (int, error) {
	if !g.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != g.nfeat {
		return 0, ErrBadFeatureLen
	}
	var buf [scratchClasses]float64
	scores := buf[:]
	if g.nclass > len(buf) {
		scores = make([]float64, g.nclass) //cocg:lint-ignore hotalloc grow path; only runs when nclass exceeds the stack scratch
	}
	scores = scores[:g.nclass]
	return g.score(x, scores), nil
}

// score accumulates every round's shrunken tree outputs into scores
// (nclass-long scratch, overwritten) and returns the argmax class; out of
// line for the reason RandomForest.vote is.
func (g *GBDT) score(x []float64, scores []float64) int {
	copy(scores, g.prior)
	for _, round := range g.roots {
		for c, r := range round {
			scores[c] += g.cfg.LearningRate * flatLeaf(g.nodes, r, x).leafValue()
		}
	}
	best, bestS := 0, math.Inf(-1)
	for c, s := range scores {
		if s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

// byRound views round-major root offsets as roots[round][class].
func byRound(roots []int32, k int) [][]int32 {
	out := make([][]int32, len(roots)/k)
	for r := range out {
		out[r] = roots[r*k : (r+1)*k]
	}
	return out
}

// Rounds returns how many boosting rounds were trained.
func (g *GBDT) Rounds() int { return len(g.roots) }

// softmaxInto writes softmax(scores) into out (same length), using the
// max-subtraction trick for numerical stability.
func softmaxInto(scores, out []float64) {
	m := scores[0]
	for _, s := range scores[1:] {
		if s > m {
			m = s
		}
	}
	var sum float64
	for i, s := range scores {
		out[i] = math.Exp(s - m)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}
