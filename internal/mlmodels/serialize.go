package mlmodels

import (
	"encoding/json"
	"fmt"
)

// Tree serialization: nodes flatten into an index-linked array so the three
// model types round-trip through JSON. A fitted model saved once serves
// every future session — the paper's "contention feature profiling and model
// training only need to be performed once".

// nodeDTO is one flattened tree node; children reference array indices, -1
// meaning none.
type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Label     int     `json:"c,omitempty"`
	Value     float64 `json:"v,omitempty"`
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

// unflatten rebuilds the subtree at index i and returns the index after its
// last node. flatten writes preorder, so a left child sits right after its
// parent and a right child right after the left subtree; a file that says
// otherwise (a cycle, a back-edge, a shared or out-of-range node) is refused
// instead of followed — a cycle would recurse until the stack overflows.
func unflatten(nodes []nodeDTO, i int) (*treeNode, int, error) {
	if i < 0 || i >= len(nodes) {
		return nil, 0, fmt.Errorf("mlmodels: node index %d out of range", i)
	}
	d := nodes[i]
	n := &treeNode{
		feature:   d.Feature,
		threshold: d.Threshold,
		label:     d.Label,
		value:     d.Value,
	}
	next := i + 1
	child := func(idx int) (c *treeNode, err error) {
		if idx == -1 {
			return nil, nil
		}
		if idx != next {
			return nil, fmt.Errorf("mlmodels: node %d has child %d, preorder puts it at %d", i, idx, next)
		}
		c, next, err = unflatten(nodes, idx)
		return c, err
	}
	var err error
	if n.left, err = child(d.Left); err != nil {
		return nil, 0, err
	}
	if n.right, err = child(d.Right); err != nil {
		return nil, 0, err
	}
	if !n.isLeaf() && (n.left == nil || n.right == nil) {
		return nil, 0, fmt.Errorf("mlmodels: split node %d missing children", i)
	}
	return n, next, nil
}

// treeDTO serializes one tree.
type treeDTO struct {
	Nodes []nodeDTO `json:"nodes"`
}

func toTreeDTO(root *treeNode) treeDTO {
	var nodes []nodeDTO
	flatten(root, &nodes)
	return treeDTO{Nodes: nodes}
}

func fromTreeDTO(d treeDTO) (*treeNode, error) {
	if len(d.Nodes) == 0 {
		return nil, fmt.Errorf("mlmodels: empty tree")
	}
	root, _, err := unflatten(d.Nodes, 0)
	return root, err
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
	return json.Marshal(dtcDTO{Tree: toTreeDTO(t.root), NFeat: t.nfeat})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *DecisionTree) UnmarshalJSON(b []byte) error {
	var d dtcDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	root, err := fromTreeDTO(d.Tree)
	if err != nil {
		return err
	}
	t.root = root
	t.flat = compileTree(t.root)
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
	d := rfDTO{NFeat: f.nfeat, NClass: f.nclass}
	for _, tr := range f.trees {
		d.Trees = append(d.Trees, toTreeDTO(tr))
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
	f.trees = f.trees[:0]
	for _, td := range d.Trees {
		root, err := fromTreeDTO(td)
		if err != nil {
			return err
		}
		f.trees = append(f.trees, root)
	}
	f.flat, f.roots = compileForest(f.trees)
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
		Prior: g.prior, NFeat: g.nfeat, NClass: g.nclass,
		LearningRate: g.cfg.LearningRate,
	}
	for _, round := range g.trees {
		var r []treeDTO
		for _, tr := range round {
			r = append(r, toTreeDTO(tr))
		}
		d.Rounds = append(d.Rounds, r)
	}
	return json.Marshal(d)
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *GBDT) UnmarshalJSON(b []byte) error {
	var d gbdtDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	if len(d.Prior) == 0 {
		return fmt.Errorf("mlmodels: gbdt without priors")
	}
	g.trees = g.trees[:0]
	for _, round := range d.Rounds {
		var r []*treeNode
		for _, td := range round {
			root, err := fromTreeDTO(td)
			if err != nil {
				return err
			}
			r = append(r, root)
		}
		if len(r) != len(d.Prior) {
			return fmt.Errorf("mlmodels: gbdt round width %d != classes %d", len(r), len(d.Prior))
		}
		g.trees = append(g.trees, r)
	}
	g.flat, g.roots = compileRounds(g.trees)
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
