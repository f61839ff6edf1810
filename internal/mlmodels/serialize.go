package mlmodels

import (
	"encoding/json"
	"fmt"
	"math"
)

// Tree serialization: each tree is written as its own index-linked node
// array, in the arena's preorder with tree-relative child indices, so the
// three model types round-trip through JSON. A fitted model saved once serves
// every future session — the paper's "contention feature profiling and model
// training only need to be performed once".

// nodeDTO is one serialized tree node; children reference array indices, -1
// meaning none.
type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Label     int     `json:"c,omitempty"`
	Value     float64 `json:"v,omitempty"`
}

// treeDTO serializes one tree.
type treeDTO struct {
	Nodes []nodeDTO `json:"nodes"`
}

// maxClasses bounds a loaded forest's class count: the trainer packs labels
// into 16 bits (treeScratch.wlab), so no fitted model has more, and Predict
// sizes its vote buffer by it.
const maxClasses = 1 << 16

// encodeTree serializes the tree rooted at root.
func encodeTree(arena []flatNode, root int32) treeDTO {
	src := arena[root:treeEnd(arena, root)]
	nodes := make([]nodeDTO, len(src))
	for i, n := range src {
		d := nodeDTO{Feature: int(n.feature), Label: int(n.label), Left: -1, Right: -1}
		if n.feature < 0 {
			d.Value = n.param
		} else {
			d.Threshold = n.param
			d.Left, d.Right = int(n.left-root), int(n.right-root)
		}
		nodes[i] = d
	}
	return treeDTO{Nodes: nodes}
}

// decodeTrees lays serialized trees out back to back in one fresh arena and
// returns each tree's root offset. The writer emits preorder — a split's left
// child is the next node, its right child the node after the left subtree —
// so a tree that says otherwise (a cycle, a back-edge, a shared, dangling or
// missing child, a trailing node) is refused instead of followed, as is any
// node Predict could not walk: a feature outside [0, nfeat) on a split or
// below -1, or a label outside [0, nclass).
func decodeTrees(trees []treeDTO, nfeat, nclass int) ([]flatNode, []int32, error) {
	if nfeat < 0 || nfeat > math.MaxInt32 {
		return nil, nil, fmt.Errorf("mlmodels: %d features", nfeat)
	}
	total := 0
	for _, t := range trees {
		total += len(t.Nodes)
	}
	arena := make([]flatNode, 0, total)
	roots := make([]int32, len(trees))
	var open []int // splits whose right child is still to come
	for ti, t := range trees {
		if len(t.Nodes) == 0 {
			return nil, nil, fmt.Errorf("mlmodels: empty tree")
		}
		base := len(arena)
		roots[ti] = int32(base)
		open = open[:0]
		for i, d := range t.Nodes {
			if i > 0 && t.Nodes[i-1].Feature < 0 {
				// A leaf closed a left subtree: node i is the right child
				// of the innermost split still open.
				if len(open) == 0 {
					return nil, nil, fmt.Errorf("mlmodels: node %d trails a complete tree", i)
				}
				p := open[len(open)-1]
				open = open[:len(open)-1]
				if t.Nodes[p].Right != i {
					return nil, nil, fmt.Errorf("mlmodels: node %d has child %d, preorder puts it at %d", p, t.Nodes[p].Right, i)
				}
				arena[base+p].right = int32(base + i)
			}
			switch {
			case d.Feature < -1 || d.Feature >= nfeat:
				return nil, nil, fmt.Errorf("mlmodels: node %d splits on feature %d of %d", i, d.Feature, nfeat)
			case d.Label < 0 || d.Label >= nclass:
				return nil, nil, fmt.Errorf("mlmodels: node %d has label %d outside [0, %d)", i, d.Label, nclass)
			case d.Feature >= 0 && d.Left != i+1:
				return nil, nil, fmt.Errorf("mlmodels: node %d has child %d, preorder puts it at %d", i, d.Left, i+1)
			case d.Feature < 0 && (d.Left != -1 || d.Right != -1):
				return nil, nil, fmt.Errorf("mlmodels: leaf node %d has children", i)
			}
			n := flatNode{feature: int32(d.Feature), param: d.Value, left: -1, right: -1, label: int32(d.Label)}
			if d.Feature >= 0 {
				n.param, n.left = d.Threshold, int32(base+i+1)
				open = append(open, i)
			}
			arena = append(arena, n)
		}
		if len(open) > 0 {
			return nil, nil, fmt.Errorf("mlmodels: split node %d missing children", open[len(open)-1])
		}
	}
	return arena, roots, nil
}

// dtcDTO serializes a DecisionTree.
type dtcDTO struct {
	Tree  treeDTO `json:"tree"`
	NFeat int     `json:"n_feat"`
}

// MarshalJSON implements json.Marshaler.
func (t *DecisionTree) MarshalJSON() ([]byte, error) {
	if !t.fitted {
		return nil, ErrNotFitted
	}
	return json.Marshal(dtcDTO{Tree: encodeTree(t.nodes, 0), NFeat: t.nfeat})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *DecisionTree) UnmarshalJSON(b []byte) error {
	var d dtcDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	nodes, _, err := decodeTrees([]treeDTO{d.Tree}, d.NFeat, math.MaxInt32)
	if err != nil {
		return err
	}
	t.nodes = nodes
	t.nfeat = d.NFeat
	t.fitted = true
	return nil
}

// rfDTO serializes a RandomForest.
type rfDTO struct {
	Trees  []treeDTO `json:"trees"`
	NFeat  int       `json:"n_feat"`
	NClass int       `json:"n_class"`
}

// MarshalJSON implements json.Marshaler.
func (f *RandomForest) MarshalJSON() ([]byte, error) {
	if !f.fitted {
		return nil, ErrNotFitted
	}
	d := rfDTO{Trees: make([]treeDTO, len(f.roots)), NFeat: f.nfeat, NClass: f.nclass}
	for i, r := range f.roots {
		d.Trees[i] = encodeTree(f.nodes, r)
	}
	return json.Marshal(d)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *RandomForest) UnmarshalJSON(b []byte) error {
	var d rfDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	if len(d.Trees) == 0 {
		return fmt.Errorf("mlmodels: forest without trees")
	}
	if d.NClass > maxClasses {
		return fmt.Errorf("mlmodels: forest with %d classes", d.NClass)
	}
	nodes, roots, err := decodeTrees(d.Trees, d.NFeat, d.NClass)
	if err != nil {
		return err
	}
	f.nodes, f.roots = nodes, roots
	f.nfeat = d.NFeat
	f.nclass = d.NClass
	f.fitted = true
	return nil
}

// gbdtDTO serializes a GBDT.
type gbdtDTO struct {
	Rounds       [][]treeDTO `json:"rounds"`
	Prior        []float64   `json:"prior"`
	NFeat        int         `json:"n_feat"`
	NClass       int         `json:"n_class"`
	LearningRate float64     `json:"lr"`
}

// MarshalJSON implements json.Marshaler.
func (g *GBDT) MarshalJSON() ([]byte, error) {
	if !g.fitted {
		return nil, ErrNotFitted
	}
	d := gbdtDTO{
		Rounds: make([][]treeDTO, len(g.roots)),
		Prior:  g.prior, NFeat: g.nfeat, NClass: g.nclass,
		LearningRate: g.cfg.LearningRate,
	}
	for i, round := range g.roots {
		d.Rounds[i] = make([]treeDTO, len(round))
		for c, r := range round {
			d.Rounds[i][c] = encodeTree(g.nodes, r)
		}
	}
	return json.Marshal(d)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *GBDT) UnmarshalJSON(b []byte) error {
	var d gbdtDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	k := len(d.Prior)
	if k == 0 {
		return fmt.Errorf("mlmodels: gbdt without priors")
	}
	if d.NClass != k {
		return fmt.Errorf("mlmodels: gbdt n_class %d != %d priors", d.NClass, k)
	}
	trees := make([]treeDTO, 0, len(d.Rounds)*k)
	for _, round := range d.Rounds {
		if len(round) != k {
			return fmt.Errorf("mlmodels: gbdt round width %d != classes %d", len(round), k)
		}
		trees = append(trees, round...)
	}
	nodes, roots, err := decodeTrees(trees, d.NFeat, math.MaxInt32)
	if err != nil {
		return err
	}
	g.nodes, g.roots = nodes, byRound(roots, k)
	g.prior = d.Prior
	g.nfeat = d.NFeat
	g.nclass = d.NClass
	g.cfg = GBDTConfig{LearningRate: d.LearningRate}.withDefaults()
	g.cfg.LearningRate = d.LearningRate
	g.fitted = true
	return nil
}

// SavedModel wraps any of the three classifiers with its algorithm tag for
// polymorphic persistence.
type SavedModel struct {
	Kind  string          `json:"kind"`
	Model json.RawMessage `json:"model"`
}

// SaveModel encodes a fitted classifier.
func SaveModel(c Classifier) (*SavedModel, error) {
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return &SavedModel{Kind: c.Name(), Model: raw}, nil
}

// LoadModel decodes a classifier by its algorithm tag.
func LoadModel(s *SavedModel) (Classifier, error) {
	var c Classifier
	switch s.Kind {
	case "DTC":
		c = &DecisionTree{}
	case "RF":
		c = &RandomForest{}
	case "GBDT":
		c = &GBDT{}
	default:
		return nil, fmt.Errorf("mlmodels: unknown model kind %q", s.Kind)
	}
	if err := json.Unmarshal(s.Model, c); err != nil {
		return nil, err
	}
	return c, nil
}
