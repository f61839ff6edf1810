package mlmodels

import (
	"math"
	"math/rand"
	"slices"
)

// Pre-sorted exact-greedy tree training (XGBoost's exact mode, sklearn's
// presort splitter). The legacy builders (now the tests' oracle, in
// legacy_test.go) rebuild and re-sort a (value, payload) slice for every
// candidate feature at every node — O(features · n log n) sorting per node
// and fresh count/index slices throughout. This file replaces that with a
// column index sorted ONCE per Fit: per feature, a []int32 row order sorted
// by (value, row id). Nodes then own a contiguous segment [lo, hi) of every feature's order array;
// split scans are single linear passes with incremental Gini/MSE statistics,
// and the chosen split is propagated by a stable in-place partition that
// keeps both children contiguous and value-sorted — no re-sorting ever.
//
// All scratch lives in a reusable fitScratch arena (the PR 3 idiom), and
// nodes append straight into a scratch node buffer in the DFS preorder the
// growth visits, so steady-state retraining — the online learner's recurring
// cost — allocates only the result arena (TestRefitAllocsIndependentOfNodeCount).
// The scan kernels are annotated //cocg:hot and gated by the hotalloc
// analyzer plus TestFitSteadyStateAllocationFree.
//
// Exactness contract: the new trainer must produce byte-identical
// serialized models to the legacy builders (the tests' oracle). The
// load-bearing facts, proven by the golden suite in fit_test.go:
//
//   - RNG: candidateFeatures consumes the node RNG identically (one
//     rng.Shuffle iff 0 < FeatureSubset < NumFeatures) and nodes visit in
//     the same DFS preorder (node, left subtree, right subtree), so the
//     stream of draws is the same.
//   - Classification: every split statistic is an integer class count over
//     a value-tie run, so the legacy builder's unstable per-node sort and
//     this file's (value, row id) order yield identical scores, thresholds,
//     and argmins.
//   - Regression: the MSE scan folds float targets in sorted order, so tie
//     order IS observable. Both sides therefore share one defined total
//     order — (value, then row position) — via the stable legacy sort (see
//     mseVals in legacy_test.go) and this file's column index.
//   - Ties across candidates: candidates scan in order and a feature takes
//     the lead only under strict <, which is exactly the legacy running
//     argmin — earliest candidate (lowest feature index when all features
//     are candidates) wins, and within a feature the earliest boundary wins.
type colIndex struct {
	n, nfeat, nclass int

	vals   []float64 // column-major feature values: vals[f*n+r]
	order  []int32   // per-feature row ids sorted by (value, row id)
	labels []int32   // class labels by row
}

// build (re)indexes ds: column-major values, labels, and each feature's
// sorted row order.
func (ci *colIndex) build(ds *Dataset) {
	n, nf := ds.Len(), ds.NumFeatures
	ci.n, ci.nfeat, ci.nclass = n, nf, ds.NumClasses
	ci.vals = growF64(ci.vals, n*nf)
	ci.order = growI32(ci.order, n*nf)
	ci.labels = growI32(ci.labels, n)
	for r, s := range ds.Samples {
		ci.labels[r] = int32(s.Label)
		for f, v := range s.Features {
			ci.vals[f*n+r] = v
		}
	}
	for f := 0; f < nf; f++ {
		ord := ci.order[f*n : (f+1)*n]
		for i := range ord {
			ord[i] = int32(i)
		}
		// Sorted by (value, row id) — a strict total order, so every
		// correct sort produces the same unique permutation and the
		// generic pdqsort (inlined comparator, no interface calls) is
		// free to replace a stable one.
		col := ci.vals[f*n : (f+1)*n]
		slices.SortFunc(ord, func(a, b int32) int {
			va, vb := col[a], col[b]
			if va != vb {
				if va < vb {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		})
	}
}

// splitCand is one candidate feature's best boundary. Beyond the score and
// threshold the classification scan also records where the boundary sits —
// bi (entry index in the feature's segment), wl (left-side weight), and nv
// (the first right-side value) — so the winner's partition can reuse the
// scan's work instead of re-comparing every row (see growClass).
type splitCand struct {
	score float64
	thr   float64
	nv    float64
	bi    int
	wl    int
	ok    bool
}

// treeScratch is the arena trees grow in: every tree of one Fit — the DTC,
// each bagged RF tree, each GBDT class tree — grows here in turn.
type treeScratch struct {
	ci *colIndex
	m  int // rows in this tree's bag (distinct rows with weight > 0)

	cur   []int32   // nfeat segments of m row ids, value-sorted per feature
	rows  []int32   // the m bag rows in original (stable) row order
	tmp   []int32   // bounce buffer for the stable partition
	goesL []uint8   // by row id: 1 when the row goes left under the split
	w     []int32   // by row id: bootstrap multiplicity in this bag
	wlab  []int32   // by row id: weight<<16 | label — one load in the scan
	tgt   []float64 // by row id: regression target (GBDT residuals)
	feats []int     // candidate-feature buffer (candidateFeaturesInto)

	ncnt, lcnt, rcnt []int // node / left / right class counts (len nclass)
	snapA, snapB     []int // scan boundary snapshots (see bestSplit)

	// cntStk holds each depth's pending child class counts: a split node
	// derives both children's counts from its own (left = the boundary
	// snapshot, right = node minus left), so only the root ever tallies
	// counts from rows. Layout: depth d's left block at d*2*nclass, right
	// block at d*2*nclass+nclass.
	cntStk []int

	// nodes is the buffer trees grow into, in preorder with offsets into
	// nodes itself. It holds every tree of the current Fit back to back, in
	// the order they grew, so it is already the fitted model's arena.
	nodes []flatNode

	// swapFeats is the Shuffle swap, built once per scratch: a closure per
	// node would put an allocation on the hottest training path.
	swapFeats func(i, j int)

	regSum, regSum2 float64 // current node's target sums (regression)
}

// ensure sizes the scratch for ci and binds the Shuffle swap. maxDepth
// bounds the grow recursion (TreeConfig.MaxDepth after defaults) and sizes
// the count stack.
func (ts *treeScratch) ensure(ci *colIndex, maxDepth int) {
	ts.ci = ci
	ts.nodes = ts.nodes[:0]
	n, nf, nc := ci.n, ci.nfeat, ci.nclass
	// One slot of slack on cur and rows: beginBag's branchless compaction
	// writes every source entry and advances the cursor only for in-bag
	// rows, so trailing out-of-bag entries write (harmlessly) one past the
	// compacted length.
	ts.cur = growI32(ts.cur, n*nf+1)[:n*nf+1]
	ts.rows = growI32(ts.rows, n+1)
	ts.tmp = growI32(ts.tmp, n)
	ts.goesL = growU8(ts.goesL, n)
	ts.w = growI32(ts.w, n)
	ts.wlab = growI32(ts.wlab, n)
	ts.tgt = growF64(ts.tgt, n)
	ts.feats = growInt(ts.feats, nf)
	ts.ncnt = growInt(ts.ncnt, nc)
	ts.lcnt = growInt(ts.lcnt, nc)
	ts.rcnt = growInt(ts.rcnt, nc)
	ts.snapA = growInt(ts.snapA, nc)
	ts.snapB = growInt(ts.snapB, nc)
	if maxDepth < 1 {
		maxDepth = 1
	}
	ts.cntStk = growInt(ts.cntStk, (maxDepth+2)*2*nc)
	if ts.swapFeats == nil {
		ts.swapFeats = func(i, j int) { ts.feats[i], ts.feats[j] = ts.feats[j], ts.feats[i] }
	}
}

// beginFull loads the scratch with every dataset row at weight 1 — the DTC
// and GBDT mode, where trees train on the whole dataset.
func (ts *treeScratch) beginFull() {
	ci := ts.ci
	ts.m = ci.n
	copy(ts.cur[:ci.nfeat*ci.n], ci.order[:ci.nfeat*ci.n])
	for r := 0; r < ci.n; r++ {
		ts.rows[r] = int32(r)
		ts.w[r] = 1
		ts.wlab[r] = 1<<16 | ci.labels[r]
	}
}

// beginBag compacts the shared column index down to the rows the caller
// weighted in ts.w (bootstrap multiplicities; 0 = out of bag). Filtering the
// pre-sorted order arrays preserves their (value, row id) order, so the bag
// never needs re-sorting — the trick that lets RF share one dataset index
// across all bootstrap samples.
func (ts *treeScratch) beginBag() {
	ci := ts.ci
	// inBag doubles as the branchless advance: every source entry writes,
	// in-bag entries advance the cursor.
	inBag := ts.goesL
	wts := ts.w
	m := 0
	for r := 0; r < ci.n; r++ {
		d := 0
		if wts[r] > 0 {
			d = 1
		}
		inBag[r] = uint8(d)
		ts.wlab[r] = wts[r]<<16 | ci.labels[r]
		ts.rows[m] = int32(r)
		m += d
	}
	ts.m = m
	for f := 0; f < ci.nfeat; f++ {
		src := ci.order[f*ci.n : (f+1)*ci.n]
		dst := ts.cur[f*m : (f+1)*m+1] // +1: slack slot for the final write
		k := 0
		for _, r := range src {
			dst[k] = r
			k += int(inBag[r])
		}
	}
}

// growClass mirrors buildClassTree over the pre-sorted segment [lo, hi),
// appending the subtree to ts.nodes in preorder and returning its root
// offset. wTot is the node's total weight — exactly len(idx) in the legacy
// builder, bootstrap duplicates included. Stop checks, RNG consumption, and
// the left-before-right recursion all match the legacy builder, so the RNG
// stream — and with it the tree — is identical.
// cnt is the node's weighted class counts when the parent already knows
// them (nil only at the root, which tallies them from its rows).
func (ts *treeScratch) growClass(cfg TreeConfig, rng *rand.Rand, lo, hi, wTot, d int, cnt []int) int32 {
	if cnt == nil {
		ts.countNode(lo, hi)
	} else {
		copy(ts.ncnt, cnt)
	}
	if d >= cfg.MaxDepth || wTot < cfg.MinSamplesSplit || ts.pureNode() {
		return ts.leaf(ts.majorityNode(), 0)
	}
	feats := ts.candidateFeaturesInto(cfg.FeatureSubset, rng)
	feat, c := ts.bestSplit(feats, lo, hi, float64(wTot), false)
	if !c.ok {
		return ts.leaf(ts.majorityNode(), 0)
	}
	var nLeft, wLeft int
	if c.thr < c.nv {
		// The usual case: the midpoint threshold separates the boundary's
		// two values, so "value <= thr" selects exactly the segment prefix
		// the scan walked — nLeft, wLeft, and lcnt (the boundary snapshot
		// bestSplit installed) are already known, no compare pass needed.
		// The split cannot be degenerate here: 0 < bi+1 < hi-lo.
		nLeft, wLeft = c.bi+1, c.wl
		ts.markPrefix(feat, lo, hi, nLeft)
	} else {
		// (v+nv)/2 rounded up to nv itself: rows at nv also satisfy
		// <= thr, exactly as in the legacy builder, so fall back to the
		// compare pass — it rebuilds lcnt (the snapshot is stale) and may
		// find the split degenerate. markClass reads ncnt's sibling lcnt
		// and goesL only; ncnt (which majorityNode reads, and the
		// recursive calls overwrite) stays valid through this leaf.
		nLeft, wLeft = ts.markClass(feat, c.thr, lo, hi)
		if nLeft == 0 || nLeft == hi-lo {
			return ts.leaf(ts.majorityNode(), 0)
		}
	}
	// A child that will stop immediately (depth cap, below MinSamplesSplit,
	// pure — the exact checks it would run on entry) never scans a feature
	// segment, so when BOTH children are terminal only the rows list is
	// partitioned (the leaves' class counts come from it) and the feature
	// segments are left stale. Stale spans are never read again: scans
	// happen strictly before descent and sibling spans are disjoint.
	childDeep := d+1 >= cfg.MaxDepth
	leftTerm := childDeep || wLeft < cfg.MinSamplesSplit || pureCounts(ts.lcnt)
	rightTerm := childDeep || wTot-wLeft < cfg.MinSamplesSplit || ts.rightPure()
	ts.propagate(lo, hi, !leftTerm, !rightTerm, feat)
	// Both children's counts derive from this node's: integer arithmetic,
	// so exactly what countNode would tally from their rows. The right
	// block must survive the whole left subtree, which only writes count
	// blocks at strictly greater depths.
	nc := len(ts.ncnt)
	base := (d + 1) * 2 * nc
	childL := ts.cntStk[base : base+nc]
	childR := ts.cntStk[base+nc : base+2*nc]
	copy(childL, ts.lcnt)
	for c2, n := range ts.ncnt {
		childR[c2] = n - ts.lcnt[c2]
	}
	idx := ts.split(feat, c.thr)
	ts.growClass(cfg, rng, lo, lo+nLeft, wLeft, d+1, childL)
	ts.nodes[idx].right = ts.growClass(cfg, rng, lo+nLeft, hi, wTot-wLeft, d+1, childR)
	return idx
}

// growReg mirrors buildRegTree over the pre-sorted segment [lo, hi),
// appending to ts.nodes like growClass. leaf folds the targets of
// ts.rows[lo:hi] in slice order; in every branch that reaches it that order
// equals the legacy rows order (a degenerate partition is the identity
// permutation), so the float fold matches.
func (ts *treeScratch) growReg(cfg TreeConfig, rng *rand.Rand, lo, hi, d int,
	leaf func(rows []int32, tgt []float64) float64) int32 {

	rows := ts.rows[lo:hi]
	if d >= cfg.MaxDepth || hi-lo < cfg.MinSamplesSplit || ts.constTargets(rows) {
		return ts.leaf(0, leaf(rows, ts.tgt))
	}
	feats := ts.candidateFeaturesInto(cfg.FeatureSubset, rng)
	feat, c := ts.bestSplit(feats, lo, hi, float64(hi-lo), true)
	if !c.ok {
		return ts.leaf(0, leaf(rows, ts.tgt))
	}
	nLeft, leftConst, rightConst := ts.markReg(feat, c.thr, lo, hi)
	if nLeft == 0 || nLeft == hi-lo {
		return ts.leaf(0, leaf(rows, ts.tgt))
	}
	// Terminal-child detection, mirroring growClass: GBDT's shallow trees
	// make the deepest split level the widest, and its children are all
	// leaves by depth — skipping their feature partitions drops most of the
	// propagation cost per round.
	childDeep := d+1 >= cfg.MaxDepth
	leftTerm := childDeep || nLeft < cfg.MinSamplesSplit || leftConst
	rightTerm := childDeep || (hi-lo)-nLeft < cfg.MinSamplesSplit || rightConst
	ts.propagate(lo, hi, !leftTerm, !rightTerm, feat)
	idx := ts.split(feat, c.thr)
	ts.growReg(cfg, rng, lo, lo+nLeft, d+1, leaf)
	ts.nodes[idx].right = ts.growReg(cfg, rng, lo+nLeft, hi, d+1, leaf)
	return idx
}

// leaf appends a leaf node and returns its offset.
func (ts *treeScratch) leaf(label int, value float64) int32 {
	ts.nodes = append(ts.nodes, flatNode{feature: -1, left: -1, right: -1, label: int32(label), param: value})
	return int32(len(ts.nodes) - 1)
}

// split appends a split node whose left child — preorder — is the next node
// appended; the caller sets right once the left subtree is in.
func (ts *treeScratch) split(feat int, thr float64) int32 {
	idx := int32(len(ts.nodes))
	ts.nodes = append(ts.nodes, flatNode{feature: int32(feat), param: thr, left: idx + 1})
	return idx
}

// countNode tallies weighted class counts for ts.rows[lo:hi] into ncnt.
func (ts *treeScratch) countNode(lo, hi int) {
	cnt := ts.ncnt
	for c := range cnt {
		cnt[c] = 0
	}
	labels := ts.ci.labels
	wts := ts.w
	for _, r := range ts.rows[lo:hi] {
		cnt[labels[r]] += int(wts[r])
	}
}

// pureNode reports whether the counted node holds at most one class.
func (ts *treeScratch) pureNode() bool {
	seen := 0
	for _, c := range ts.ncnt {
		if c > 0 {
			seen++
		}
	}
	return seen <= 1
}

// majorityNode returns the argmax class of the counted node; ties break
// toward the lower class ID, exactly like majorityLabel.
func (ts *treeScratch) majorityNode() int {
	best, bestN := 0, -1
	for c, n := range ts.ncnt {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// constTargets reports whether every row's target equals the first's — the
// regression purity stop, matching constantTargets.
func (ts *treeScratch) constTargets(rows []int32) bool {
	if len(rows) == 0 {
		return true
	}
	first := ts.tgt[rows[0]]
	for _, r := range rows[1:] {
		if ts.tgt[r] != first {
			return false
		}
	}
	return true
}

// candidateFeaturesInto fills the scratch feature buffer exactly like
// candidateFeatures: identity order, then one rng.Shuffle iff the subset is
// proper — the same RNG consumption, so both builders read the same stream.
func (ts *treeScratch) candidateFeaturesInto(m int, rng *rand.Rand) []int {
	nf := ts.ci.nfeat
	all := ts.feats[:nf]
	for i := range all {
		all[i] = i
	}
	if m <= 0 || m >= nf {
		return all
	}
	rng.Shuffle(nf, ts.swapFeats)
	return all[:m]
}

// bestSplit scans the candidate features over [lo, hi) and returns the split
// with the lowest impurity. nTot is the node's total weight as a float (the
// legacy n). Candidates scan in order and take the lead only under strict <,
// which reproduces the legacy running argmin bit for bit: the earliest
// candidate (lowest feature index when all features are candidates) wins
// score ties.
func (ts *treeScratch) bestSplit(feats []int, lo, hi int, nTot float64, reg bool) (feat int, best splitCand) {
	if reg {
		// Node target sums, folded over rows in stable row order exactly
		// like the legacy totalSum/totalSum2 loop.
		var sum, sum2 float64
		for _, r := range ts.rows[lo:hi] {
			t := ts.tgt[r]
			sum += t
			sum2 += t * t
		}
		ts.regSum, ts.regSum2 = sum, sum2
	}
	bestScore := math.Inf(1)
	// Boundary snapshots double-buffer: each scan writes snapCur at its
	// improvements; when a feature takes the overall lead its snapshot is
	// kept by swapping the buffers, so snapBest always tracks the leader.
	snapCur, snapBest := ts.snapA, ts.snapB
	for _, f := range feats {
		var c splitCand
		if reg {
			c = ts.scanMSE(f, lo, hi)
		} else {
			c = ts.scanGini(f, lo, hi, nTot, snapCur)
		}
		if c.ok && c.score < bestScore {
			bestScore, feat, best = c.score, f, c
			snapCur, snapBest = snapBest, snapCur
		}
	}
	if best.ok && !reg {
		copy(ts.lcnt, snapBest)
	}
	return feat, best
}

// giniNZ is gini (legacy_test.go) with zero-count classes skipped. Skipping class
// c == 0 elides the exact no-op g -= (0/n)*(0/n) == g - 0, so the result is
// bit-identical to the legacy fold while concentrated nodes — most nodes
// below the first few levels — skip most of the float divisions, the
// dominant cost of the boundary evaluation.
//
//cocg:hot
func giniNZ(counts []int, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		if c != 0 {
			p := float64(c) / n
			g -= p * p
		}
	}
	return g
}

// scanGini finds feature f's best boundary in [lo, hi) with one linear pass
// over the pre-sorted segment: weighted class counts move from right to
// left one entry at a time, equal-value boundaries are skipped, and the
// score expression is copied verbatim from bestGiniSplit — entry weights
// stand in for the legacy builder's duplicated bootstrap rows, producing
// the same integer counts and therefore the same floats. The counts move in
// ts.lcnt/ts.rcnt; the left counts at the best boundary are copied to snap.
//
//cocg:hot
func (ts *treeScratch) scanGini(f, lo, hi int, nTot float64, snap []int) (c splitCand) {
	ci := ts.ci
	lcnt, rcnt := ts.lcnt, ts.rcnt
	seg := ts.cur[f*ts.m+lo : f*ts.m+hi]
	col := ci.vals[f*ci.n : (f+1)*ci.n]
	wlab := ts.wlab
	for c := range lcnt {
		lcnt[c] = 0
	}
	// The right side starts as the whole node, whose weighted class counts
	// countNode already tallied into ncnt — no per-feature recount pass.
	copy(rcnt, ts.ncnt)
	if len(seg) == 0 {
		return c
	}
	best := math.Inf(1)
	wl := 0
	// v carries col[seg[i]] across iterations, so each step loads only the
	// successor's value.
	v := col[seg[0]]
	for i := 0; i < len(seg)-1; i++ {
		r := seg[i]
		// One packed load per entry: weight in the high half, label low.
		wlr := wlab[r]
		w := int(wlr >> 16)
		lab := wlr & 0xffff
		lcnt[lab] += w
		rcnt[lab] -= w
		wl += w
		nv := col[seg[i+1]]
		// A boundary exists only between distinct values; wl counts
		// weights, matching the legacy i+1 over duplicated rows.
		if v != nv {
			nlf := float64(wl)
			nrf := nTot - nlf
			s := nlf/nTot*giniNZ(lcnt, nlf) + nrf/nTot*giniNZ(rcnt, nrf)
			if s < best {
				best = s
				c = splitCand{score: s, thr: (v + nv) / 2, nv: nv, bi: i, wl: wl, ok: true}
				copy(snap, lcnt)
			}
		}
		v = nv
	}
	return c
}

// scanMSE finds feature f's best boundary in [lo, hi) with one linear pass:
// left-side target sums accumulate entry by entry in the segment's (value,
// row id) order — the same defined order the stable legacy sort visits — so
// every float operation matches bestMSESplit exactly.
//
//cocg:hot
func (ts *treeScratch) scanMSE(f, lo, hi int) (c splitCand) {
	ci := ts.ci
	seg := ts.cur[f*ts.m+lo : f*ts.m+hi]
	col := ci.vals[f*ci.n : (f+1)*ci.n]
	totalSum, totalSum2 := ts.regSum, ts.regSum2
	tgt := ts.tgt
	n := float64(len(seg))
	if len(seg) == 0 {
		return c
	}
	best := math.Inf(1)
	var ls, ls2 float64
	v := col[seg[0]]
	for i := 0; i < len(seg)-1; i++ {
		r := seg[i]
		t := tgt[r]
		ls += t
		ls2 += t * t
		nv := col[seg[i+1]]
		if v != nv {
			nl := float64(i + 1)
			nr := n - nl
			rs := totalSum - ls
			rs2 := totalSum2 - ls2
			// SSE of each side = sum(t^2) - (sum t)^2 / n.
			s := (ls2 - ls*ls/nl) + (rs2 - rs*rs/nr)
			if s < best {
				best = s
				c = splitCand{score: s, thr: (v + nv) / 2, ok: true}
			}
		}
		v = nv
	}
	return c
}

// markPrefix sets goesL straight from the winning feature's segment: when
// thr < nv, "value <= thr" selects exactly the first nLeft entries of the
// value-sorted segment, so the marks need no compares — two sequential
// passes over row ids.
//
//cocg:hot
func (ts *treeScratch) markPrefix(feat, lo, hi, nLeft int) {
	seg := ts.cur[feat*ts.m+lo : feat*ts.m+hi]
	goesL := ts.goesL
	for _, r := range seg[:nLeft] {
		goesL[r] = 1
	}
	for _, r := range seg[nLeft:] {
		goesL[r] = 0
	}
}

// markClass classifies the node's rows under (feat, thr) without moving
// anything: goesL flags per row, the left side's entry count and weight,
// and its weighted class counts into lcnt — everything the degenerate-leaf
// and terminal-child checks need before any segment is touched.
//
//cocg:hot
func (ts *treeScratch) markClass(feat int, thr float64, lo, hi int) (nLeft, wLeft int) {
	ci := ts.ci
	col := ci.vals[feat*ci.n : (feat+1)*ci.n]
	goesL := ts.goesL
	wts := ts.w
	labels := ci.labels
	lcnt := ts.lcnt
	for c := range lcnt {
		lcnt[c] = 0
	}
	for _, r := range ts.rows[lo:hi] {
		if col[r] <= thr {
			goesL[r] = 1
			w := int(wts[r])
			nLeft++
			wLeft += w
			lcnt[labels[r]] += w
		} else {
			goesL[r] = 0
		}
	}
	return nLeft, wLeft
}

// markReg is markClass for regression: instead of class counts it tracks
// whether each side's targets are constant — the child's own stop check,
// computed a level early so terminal children can skip propagation.
//
//cocg:hot
func (ts *treeScratch) markReg(feat int, thr float64, lo, hi int) (nLeft int, leftConst, rightConst bool) {
	ci := ts.ci
	col := ci.vals[feat*ci.n : (feat+1)*ci.n]
	goesL := ts.goesL
	tgt := ts.tgt
	leftConst, rightConst = true, true
	var lt, rt float64
	haveL, haveR := false, false
	for _, r := range ts.rows[lo:hi] {
		t := tgt[r]
		if col[r] <= thr {
			goesL[r] = 1
			nLeft++
			if !haveL {
				lt, haveL = t, true
			} else if t != lt {
				leftConst = false
			}
		} else {
			goesL[r] = 0
			if !haveR {
				rt, haveR = t, true
			} else if t != rt {
				rightConst = false
			}
		}
	}
	return nLeft, leftConst, rightConst
}

// pureCounts reports whether counts holds at most one nonzero class — the
// same test pureNode will run on the child.
func pureCounts(counts []int) bool {
	seen := 0
	for _, c := range counts {
		if c > 0 {
			seen++
		}
	}
	return seen <= 1
}

// rightPure reports whether the right child (node counts minus the left
// counts markClass just filled) holds at most one class.
func (ts *treeScratch) rightPure() bool {
	seen := 0
	for c, n := range ts.ncnt {
		if n-ts.lcnt[c] > 0 {
			seen++
		}
	}
	return seen <= 1
}

// propagate applies the goesL marks: the rows list always partitions (leaf
// statistics read it), the nfeat feature segments only as far as a child
// will scan them. A terminal child (scanL/scanR false) never reads its
// feature spans, so when only one child survives its side compacts in
// place — half the writes and no bounce buffer — and when neither does the
// segments are left stale entirely. The split feature itself (skip) never
// needs moving: its left rows are exactly a prefix of its value-sorted
// segment, so the stable partition would be the identity there.
//
//cocg:hot
func (ts *treeScratch) propagate(lo, hi int, scanL, scanR bool, skip int) {
	ts.stablePartition(ts.rows[lo:hi])
	if !scanL && !scanR {
		return
	}
	ci := ts.ci
	for f := 0; f < ci.nfeat; f++ {
		if f == skip {
			continue
		}
		seg := ts.cur[f*ts.m+lo : f*ts.m+hi]
		switch {
		case scanL && scanR:
			ts.stablePartition(seg)
		case scanL:
			ts.compactLeft(seg)
		default:
			ts.compactRight(seg)
		}
	}
}

// compactLeft keeps only the left-marked rows, packed stably at the front;
// the right span is left stale (its child is terminal and never reads it).
// Branchless: every entry writes at the cursor, left marks advance it, and
// the cursor never passes the read index.
//
//cocg:hot
func (ts *treeScratch) compactLeft(seg []int32) {
	goesL := ts.goesL
	k := 0
	for _, r := range seg {
		seg[k] = r
		k += int(goesL[r])
	}
}

// compactRight is the mirror: right-marked rows pack stably at the back via
// a descending pass (the write cursor never drops below the read index), and
// the stale left span belongs to a terminal child.
//
//cocg:hot
func (ts *treeScratch) compactRight(seg []int32) {
	goesL := ts.goesL
	k := len(seg) - 1
	for i := len(seg) - 1; i >= 0; i-- {
		r := seg[i]
		seg[k] = r
		k -= 1 - int(goesL[r])
	}
}

// stablePartition reorders seg so rows marked goesL come first, both sides
// keeping their relative order. The loop is branchless: every entry writes
// both the in-place left cursor (safe: it never passes the read index) and
// the bounce buffer, and the flag advances exactly one of them.
//
//cocg:hot
func (ts *treeScratch) stablePartition(seg []int32) {
	goesL := ts.goesL
	tmp := ts.tmp
	k, t := 0, 0
	for _, r := range seg {
		d := int(goesL[r])
		seg[k] = r
		tmp[t] = r
		k += d
		t += 1 - d
	}
	copy(seg[k:], tmp[:t])
}

// fitScratch is the reusable training arena a model keeps across Fit calls:
// the column index and the one tree scratch every tree of a Fit grows in.
type fitScratch struct {
	ci colIndex
	ts treeScratch
}

// prepare rebuilds the column index for ds, resizes the tree scratch for it
// and returns the scratch.
func (s *fitScratch) prepare(ds *Dataset, maxDepth int) *treeScratch {
	s.ci.build(ds)
	s.ts.ensure(&s.ci, maxDepth)
	return &s.ts
}

// --- sized-buffer helpers (grow capacity, reslice to exact length) ---

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}
