package mlmodels

import (
	"math"
	"math/rand"

	"cocg/internal/lazyrand"
	"cocg/internal/parallel"
)

// GBDTConfig controls gradient-boosted tree training.
type GBDTConfig struct {
	NumRounds    int     // boosting rounds; <=0 means 60
	LearningRate float64 // shrinkage; <=0 means 0.2
	Tree         TreeConfig
	Seed         int64
	// Workers bounds the goroutines used inside each boosting round (the
	// rounds themselves are inherently sequential): the per-class candidate
	// trees fit concurrently and the residual/score passes fan out over
	// sample chunks. Each class tree derives its RNG from a seed drawn
	// serially before the fan-out, so the model is identical at every
	// worker count. <= 0 means GOMAXPROCS.
	Workers int
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
	cfg GBDTConfig
	// trees is the pointer-tree grid (serialization source of truth);
	// prediction walks the shared flat arena instead.
	trees  [][]*treeNode // trees[round][class]
	flat   []flatNode    // every round's trees compiled contiguously
	roots  [][]int32     // roots[round][class] arena offsets
	nfeat  int
	nclass int
	prior  []float64 // initial log-odds per class
	fitted bool
	// fit is the reusable pre-sorted training arena (see fit.go): one
	// column index shared by every round's class trees plus a free list of
	// per-class tree scratches. Lazily created, never serialized.
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
// every round, feature order never does), class trees draw reusable
// scratches from a free list, and each round's trees grow by linear scans.
// The fitted model is byte-identical to the legacy per-node-sorting builder
// (fitLegacy) at every worker count.
func (g *GBDT) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
	}
	n := ds.Len()
	k, scores := g.initBoost(ds)
	rng := rand.New(rand.NewSource(g.cfg.Seed))

	g.trees = make([][]*treeNode, 0, g.cfg.NumRounds)
	kf := float64(k)
	workers := g.cfg.Workers
	// The per-class trees own the worker budget; each scans its features
	// serially.
	treeCfg := g.cfg.Tree
	treeCfg.Workers = 1
	if g.fit == nil {
		g.fit = &fitScratch{}
	}
	scratches := parallel.Workers(workers)
	if scratches > k {
		scratches = k
	}
	g.fit.prepare(ds, workers, scratches, 1, treeCfg.MaxDepth)
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
	for round := 0; round < g.cfg.NumRounds; round++ {
		// Residuals for every class under the current model; each sample's
		// row is independent, so the pass fans out over sample chunks.
		parallel.ForChunks(workers, n, func(_, lo, hi int) {
			probs := make([]float64, k)
			for i := lo; i < hi; i++ {
				softmaxInto(scores[i], probs)
				for c := 0; c < k; c++ {
					y := 0.0
					if ds.Samples[i].Label == c {
						y = 1.0
					}
					residuals[c][i] = y - probs[c]
				}
			}
		})
		// One candidate tree per class; the fits are independent given the
		// residuals. Seeds are drawn serially so the fan-out cannot change
		// the model.
		seeds := make([]int64, k)
		for c := range seeds {
			seeds[c] = rng.Int63()
		}
		roundTrees := make([]*treeNode, k)
		parallel.For(workers, k, func(c int) {
			classRNG := rand.New(lazyrand.NewSource(seeds[c]))
			ts := <-g.fit.free
			ts.beginFull()
			copy(ts.tgt[:n], residuals[c])
			roundTrees[c] = ts.growReg(treeCfg, classRNG, 0, n, 0, leaf)
			g.fit.free <- ts
		})
		// Update scores with the shrunken tree outputs.
		parallel.ForChunks(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				for c := 0; c < k; c++ {
					scores[i][c] += g.cfg.LearningRate * predictReg(roundTrees[c], ds.Samples[i].Features)
				}
			}
		})
		g.trees = append(g.trees, roundTrees)
	}
	g.flat, g.roots = compileRounds(g.trees)
	g.nfeat = ds.NumFeatures
	g.nclass = k
	g.fitted = true
	return nil
}

// initBoost computes the Laplace-smoothed log priors and the per-sample
// score matrix both builders start from.
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

// fitLegacy is the pre-sorted trainer's reference implementation: the
// original builder that re-sorts every feature at every node and round,
// retained for the golden equivalence suite and the recorded before/after
// benchmarks.
func (g *GBDT) fitLegacy(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
	}
	n := ds.Len()
	k, scores := g.initBoost(ds)
	rng := rand.New(rand.NewSource(g.cfg.Seed))

	g.trees = make([][]*treeNode, 0, g.cfg.NumRounds)
	kf := float64(k)
	workers := g.cfg.Workers
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
		parallel.ForChunks(workers, n, func(_, lo, hi int) {
			probs := make([]float64, k)
			for i := lo; i < hi; i++ {
				softmaxInto(scores[i], probs)
				for c := 0; c < k; c++ {
					y := 0.0
					if ds.Samples[i].Label == c {
						y = 1.0
					}
					residuals[c][i] = regTarget{idx: i, target: y - probs[c]}
				}
			}
		})
		seeds := make([]int64, k)
		for c := range seeds {
			seeds[c] = rng.Int63()
		}
		roundTrees := make([]*treeNode, k)
		parallel.For(workers, k, func(c int) {
			classRNG := rand.New(lazyrand.NewSource(seeds[c]))
			roundTrees[c] = buildRegTree(ds, residuals[c], g.cfg.Tree, 0, classRNG, leaf)
		})
		parallel.ForChunks(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				for c := 0; c < k; c++ {
					scores[i][c] += g.cfg.LearningRate * predictReg(roundTrees[c], ds.Samples[i].Features)
				}
			}
		})
		g.trees = append(g.trees, roundTrees)
	}
	g.flat, g.roots = compileRounds(g.trees)
	g.nfeat = ds.NumFeatures
	g.nclass = k
	g.fitted = true
	return nil
}

// Predict implements Classifier. Score accumulators live in a fixed stack
// buffer and the trees are walked in the compiled arena, so a call allocates
// nothing. Accumulation order (round-major, then class) matches the
// pointer-tree implementation exactly, keeping the floating-point scores —
// and therefore the argmax — byte-identical.
func (g *GBDT) Predict(x []float64) (int, error) {
	if !g.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != g.nfeat {
		return 0, ErrBadFeatureLen
	}
	var buf [scratchClasses]float64
	scores := scoreScratch(buf[:], g.nclass)
	return g.score(x, scores), nil
}

// PredictBatch implements BatchPredictor: one score buffer serves the whole
// batch, so steady-state batch prediction does zero allocation.
//
//cocg:hot
func (g *GBDT) PredictBatch(xs [][]float64, out []int) error {
	if err := checkBatch(g.fitted, xs, out); err != nil {
		return err
	}
	var buf [scratchClasses]float64
	scores := scoreScratch(buf[:], g.nclass) //cocg:lint-ignore hotalloc grow path; the inlined make only runs when nclass exceeds the stack scratch
	for i, x := range xs {
		if len(x) != g.nfeat {
			return ErrBadFeatureLen
		}
		out[i] = g.score(x, scores)
	}
	return nil
}

// score accumulates every round's shrunken tree outputs into scores
// (nclass-long scratch, overwritten) and returns the argmax class.
func (g *GBDT) score(x []float64, scores []float64) int {
	copy(scores, g.prior)
	for _, round := range g.roots {
		for c, r := range round {
			scores[c] += g.cfg.LearningRate * flatLeaf(g.flat, r, x).leafValue()
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

// scoreScratch slices an n-class score buffer out of buf, falling back to an
// allocation for class counts beyond the stack scratch.
func scoreScratch(buf []float64, n int) []float64 {
	if n > len(buf) {
		return make([]float64, n)
	}
	return buf[:n]
}

// predictPointer is the pre-compilation pointer walk, kept as the reference
// implementation for the flat-vs-pointer property tests and benchmarks.
func (g *GBDT) predictPointer(x []float64) int {
	scores := make([]float64, g.nclass)
	copy(scores, g.prior)
	for _, round := range g.trees {
		for c, t := range round {
			scores[c] += g.cfg.LearningRate * predictReg(t, x)
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

// Rounds returns how many boosting rounds were trained.
func (g *GBDT) Rounds() int { return len(g.trees) }

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
