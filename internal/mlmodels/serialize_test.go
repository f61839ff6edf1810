package mlmodels

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// roundTrip saves and reloads a classifier through the polymorphic wrapper.
func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	saved, err := SaveModel(c)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	var back SavedModel
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&back)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestRoundTripPreservesPredictions(t *testing.T) {
	ds := synthDataset(300, 11)
	test := synthDataset(80, 12)
	for _, m := range allModels() {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, m)
		if loaded.Name() != m.Name() {
			t.Errorf("kind changed: %s -> %s", m.Name(), loaded.Name())
		}
		for _, s := range test.Samples {
			want, err := m.Predict(s.Features)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Predict(s.Features)
			if err != nil {
				t.Fatalf("%s loaded Predict: %v", m.Name(), err)
			}
			if got != want {
				t.Fatalf("%s: prediction changed after round trip", m.Name())
			}
		}
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	for _, m := range allModels() {
		if _, err := SaveModel(m); err == nil {
			t.Errorf("%s: saving an unfitted model succeeded", m.Name())
		}
	}
}

func TestLoadUnknownKind(t *testing.T) {
	if _, err := LoadModel(&SavedModel{Kind: "SVM", Model: []byte("{}")}); err == nil {
		t.Error("unknown kind loaded")
	}
}

// corruptPayloads are model payloads LoadModel must refuse, keyed by what is
// wrong with them. The last four used to load, and Predict then panicked with
// an index out of range (or, for the negative feature, walked a split as a
// leaf).
var corruptPayloads = []struct{ name, kind, payload string }{
	{"empty tree", "DTC", `{"tree":{"nodes":[]},"n_feat":2}`},
	{"no trees", "RF", `{"trees":[],"n_feat":2,"n_class":2}`},
	{"no priors", "GBDT", `{"rounds":[],"prior":[],"n_feat":2,"n_class":2,"lr":0.2}`},
	{"dangling child", "DTC", `{"tree":{"nodes":[{"f":0,"t":1,"l":5,"r":-1}]},"n_feat":1}`},
	{"half split", "DTC", `{"tree":{"nodes":[{"f":0,"t":1,"l":1,"r":-1},{"f":-1,"c":0,"l":-1,"r":-1}]},"n_feat":1}`},
	{"feature past n_feat", "DTC", `{"tree":{"nodes":[{"f":3,"t":1,"l":1,"r":2},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1}]},"n_feat":1}`},
	{"feature below -1", "RF", `{"trees":[{"nodes":[{"f":-2,"t":1,"l":1,"r":2},{"f":-1,"l":-1,"r":-1},{"f":-1,"l":-1,"r":-1}]}],"n_feat":1,"n_class":2}`},
	{"label past n_class", "RF", `{"trees":[{"nodes":[{"f":-1,"c":5,"l":-1,"r":-1}]}],"n_feat":1,"n_class":2}`},
	{"n_class != priors", "GBDT", `{"rounds":[[{"nodes":[{"f":-1,"v":1,"l":-1,"r":-1}]},{"nodes":[{"f":-1,"v":2,"l":-1,"r":-1}]}]],"prior":[0,0],"n_feat":1,"n_class":1,"lr":0.2}`},
}

func TestLoadCorruptPayloads(t *testing.T) {
	for _, tc := range corruptPayloads {
		if _, err := LoadModel(&SavedModel{Kind: tc.kind, Model: []byte(tc.payload)}); err == nil {
			t.Errorf("%s %s: corrupt payload loaded", tc.kind, tc.name)
		}
	}
}

// preorderCases are trees whose child indices are, or are not, where the
// preorder writer puts them; preorderWrap embeds one in each model kind.
var (
	preorderLeaf  = `{"f":-1,"l":-1,"r":-1}`
	preorderCases = []struct {
		name, nodes string
		ok          bool
	}{
		{"well-formed", `[{"f":0,"t":1,"l":1,"r":2},` + preorderLeaf + `,` + preorderLeaf + `]`, true},
		{"self-loop", `[{"f":0,"t":1,"l":0,"r":0}]`, false},
		{"back-edge", `[{"f":0,"t":1,"l":1,"r":4},{"f":0,"t":1,"l":2,"r":3},` + preorderLeaf + `,{"f":0,"t":1,"l":0,"r":0},` + preorderLeaf + `]`, false},
		{"two-node cycle", `[{"f":0,"t":1,"l":1,"r":1},{"f":0,"t":1,"l":0,"r":0}]`, false},
		{"out of range", `[{"f":0,"t":1,"l":1,"r":7},` + preorderLeaf + `]`, false},
		{"shared child", `[{"f":0,"t":1,"l":1,"r":1},` + preorderLeaf + `]`, false},
		{"trailing node", `[` + preorderLeaf + `,` + preorderLeaf + `]`, false},
		{"leaf with child", `[{"f":-1,"l":1,"r":-1},` + preorderLeaf + `]`, false},
	}
	preorderWrap = map[string]string{
		"DTC":  `{"tree":{"nodes":%s},"n_feat":1}`,
		"RF":   `{"trees":[{"nodes":%s}],"n_feat":1,"n_class":2}`,
		"GBDT": `{"rounds":[[{"nodes":%s}]],"prior":[0],"n_feat":1,"n_class":1,"lr":0.2}`,
	}
)

// TestLoadRejectsNonPreorderChildren feeds every model kind trees whose child
// indices are not where the preorder writer puts them. Each must come back as
// an error: followed naively, the cyclic ones recurse until the process dies.
func TestLoadRejectsNonPreorderChildren(t *testing.T) {
	for kind, format := range preorderWrap {
		for _, tc := range preorderCases {
			payload := fmt.Sprintf(format, tc.nodes)
			_, err := LoadModel(&SavedModel{Kind: kind, Model: []byte(payload)})
			if (err == nil) != tc.ok {
				t.Errorf("%s, %s: LoadModel error %v, want loaded=%v", kind, tc.name, err, tc.ok)
			}
		}
	}
}

// TestFlattenUnflattenIdentity checks the arena ⇄ node-array conversion is
// lossless for all three kinds: a fitted model's bytes survive Load →
// Marshal unchanged, and so do its shape accessors.
func TestFlattenUnflattenIdentity(t *testing.T) {
	ds := xorDataset(200, 13)
	for _, m := range allModels() {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		back := roundTrip(t, m)
		if !bytes.Equal(mustMarshal(t, back.(json.Marshaler)), mustMarshal(t, m.(json.Marshaler))) {
			t.Errorf("%s: bytes changed over a save/load round trip", m.Name())
		}
		if shape(back) != shape(m) {
			t.Errorf("%s: shape changed: %v -> %v", m.Name(), shape(m), shape(back))
		}
	}
}

// shape reads a model's tree-count accessors.
func shape(c Classifier) [3]int {
	switch m := c.(type) {
	case *DecisionTree:
		return [3]int{m.Depth(), len(m.nodes), m.nfeat}
	case *RandomForest:
		return [3]int{m.NumTrees(), len(m.nodes), m.nfeat}
	case *GBDT:
		return [3]int{m.Rounds(), len(m.nodes), m.nfeat}
	}
	return [3]int{}
}

// FuzzLoadModel: whatever LoadModel accepts must predict on any vector of
// its feature width without panicking, and re-serialize stably — Marshal →
// Load → Marshal gives the same bytes.
func FuzzLoadModel(f *testing.F) {
	for _, tc := range corruptPayloads {
		f.Add(tc.kind, []byte(tc.payload))
	}
	for kind, format := range preorderWrap {
		for _, tc := range preorderCases {
			f.Add(kind, []byte(fmt.Sprintf(format, tc.nodes)))
		}
	}
	ds := xorDataset(60, 3)
	for _, m := range []Classifier{
		NewDecisionTree(TreeConfig{Seed: 1}),
		NewRandomForest(ForestConfig{NumTrees: 3, Seed: 1}),
		NewGBDT(GBDTConfig{NumRounds: 2, Seed: 1}),
	} {
		if err := m.Fit(ds); err != nil {
			f.Fatal(err)
		}
		f.Add(m.Name(), mustMarshal(f, m.(json.Marshaler)))
	}
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		m, err := LoadModel(&SavedModel{Kind: kind, Model: payload})
		if err != nil {
			return
		}
		// Predict reads every feature a split names, so one vector per fill
		// value covers the walk; widths past a few thousand only cost memory.
		if nf := shape(m)[2]; nf <= 4096 {
			x := make([]float64, nf)
			for _, v := range []float64{math.Inf(-1), -1, 0, 0.5, 1, math.MaxFloat64, math.NaN()} {
				for i := range x {
					x[i] = v
				}
				if _, err := m.Predict(x); err != nil {
					t.Fatalf("loaded %s predicts %v: %v", kind, v, err)
				}
			}
		}
		b1 := mustMarshal(t, m.(json.Marshaler))
		m2, err := LoadModel(&SavedModel{Kind: kind, Model: b1})
		if err != nil {
			t.Fatalf("re-load of %s: %v\n%s", kind, err, b1)
		}
		if b2 := mustMarshal(t, m2.(json.Marshaler)); !bytes.Equal(b1, b2) {
			t.Fatalf("%s re-serializes differently:\n%s\n%s", kind, b1, b2)
		}
	})
}
