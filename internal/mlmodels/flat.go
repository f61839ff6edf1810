package mlmodels

// The tree arena: every fitted tree — grown by Fit, or decoded by
// UnmarshalJSON — is a run of flatNodes in preorder inside one contiguous
// []flatNode, and that is its only representation. The online loop calls
// Predict once per stage boundary for every co-located session, so the walk
// is a production hot path: preorder puts a split's left child in the next
// record, so a root-to-leaf walk mostly stays inside a few cache lines, and
// an ensemble's trees share one allocation.

// flatNode is one tree node in the arena. Children are int32 offsets into the
// same arena; feature == -1 marks a leaf carrying either a classification
// label or a regression value.
type flatNode struct {
	// param is the split threshold for interior nodes; for leaves it holds
	// the regression payload (GBDT member trees) instead — the two roles
	// never coexist. The pad field keeps the node at 32 bytes: exactly two
	// nodes per cache line, so no node ever straddles a line boundary
	// (a 24-byte packing measured slower for that reason).
	param   float64
	feature int32 // split feature; -1 for leaf
	left    int32 // arena offset; preorder layout makes this idx+1
	right   int32 // arena offset
	label   int32 // classification leaf payload
	_       int64 // pad to 32 bytes (see above)
}

// leafValue reads a leaf's regression payload; callers must only use it on
// nodes flatLeaf returned (feature < 0).
func (n *flatNode) leafValue() float64 { return n.param }

// scratchClasses bounds the per-call stack scratch (RF vote counts, GBDT
// score accumulators). Stage catalogs are small — typically under ten stage
// types — so the fixed buffers cover every real model; larger class counts
// fall back to an allocation.
const scratchClasses = 64

// flatLeaf walks the tree rooted at offset root and returns the leaf x lands
// in: x[feature] <= threshold goes left.
func flatLeaf(arena []flatNode, root int32, x []float64) *flatNode {
	n := &arena[root]
	for n.feature >= 0 {
		if x[n.feature] <= n.param {
			n = &arena[n.left]
		} else {
			n = &arena[n.right]
		}
	}
	return n
}

// treeEnd returns the offset one past the last node of the tree rooted at
// root: in preorder that last node is the leaf at the end of the rightmost
// path.
func treeEnd(arena []flatNode, root int32) int32 {
	for arena[root].feature >= 0 {
		root = arena[root].right
	}
	return root + 1
}

// treeDepth returns the depth of the subtree rooted at i (a leaf has depth 1).
func treeDepth(arena []flatNode, i int32) int {
	n := &arena[i]
	if n.feature < 0 {
		return 1
	}
	return 1 + max(treeDepth(arena, n.left), treeDepth(arena, n.right))
}

// treeRef locates one freshly grown tree: the node span [lo, hi) it occupies
// in the buffer of the scratch that grew it. Preorder puts the root first,
// so lo is the offset growClass/growReg returned.
type treeRef struct {
	ts     *treeScratch
	lo, hi int32
}

// publish concatenates the trees refs locate, in order, into one fresh arena
// sized exactly, rebasing their child offsets, and returns it with each
// tree's root offset. A published arena is never written again.
func publish(refs []treeRef) ([]flatNode, []int32) {
	total := 0
	for _, r := range refs {
		total += int(r.hi - r.lo)
	}
	arena := make([]flatNode, 0, total)
	roots := make([]int32, len(refs))
	for i, r := range refs {
		roots[i] = int32(len(arena))
		delta := roots[i] - r.lo
		for _, n := range r.ts.nodes[r.lo:r.hi] {
			if n.feature >= 0 {
				n.left += delta
				n.right += delta
			}
			arena = append(arena, n)
		}
	}
	return arena, roots
}
