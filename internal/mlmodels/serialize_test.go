package mlmodels

import (
	"encoding/json"
	"fmt"
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

func TestLoadCorruptPayloads(t *testing.T) {
	cases := map[string]string{
		"DTC":  `{"tree":{"nodes":[]},"n_feat":2}`,
		"RF":   `{"trees":[],"n_feat":2,"n_class":2}`,
		"GBDT": `{"rounds":[],"prior":[],"n_feat":2,"n_class":2,"lr":0.2}`,
	}
	for kind, payload := range cases {
		if _, err := LoadModel(&SavedModel{Kind: kind, Model: []byte(payload)}); err == nil {
			t.Errorf("%s: corrupt payload loaded", kind)
		}
	}
	// Dangling child index.
	bad := `{"tree":{"nodes":[{"f":0,"t":1,"l":5,"r":-1}]},"n_feat":1}`
	if _, err := LoadModel(&SavedModel{Kind: "DTC", Model: []byte(bad)}); err == nil {
		t.Error("dangling node index loaded")
	}
	// Split node with one child missing.
	half := `{"tree":{"nodes":[{"f":0,"t":1,"l":1,"r":-1},{"f":-1,"c":0,"l":-1,"r":-1}]},"n_feat":1}`
	if _, err := LoadModel(&SavedModel{Kind: "DTC", Model: []byte(half)}); err == nil {
		t.Error("half-split node loaded")
	}
}

// TestLoadRejectsNonPreorderChildren feeds every model kind trees whose child
// indices are not where the preorder writer puts them. Each must come back as
// an error: followed naively, the cyclic ones recurse until the process dies.
func TestLoadRejectsNonPreorderChildren(t *testing.T) {
	const leaf = `{"f":-1,"l":-1,"r":-1}`
	cases := []struct {
		name, nodes string
		ok          bool
	}{
		{"well-formed", `[{"f":0,"t":1,"l":1,"r":2},` + leaf + `,` + leaf + `]`, true},
		{"self-loop", `[{"f":0,"t":1,"l":0,"r":0}]`, false},
		{"back-edge", `[{"f":0,"t":1,"l":1,"r":4},{"f":0,"t":1,"l":2,"r":3},` + leaf + `,{"f":0,"t":1,"l":0,"r":0},` + leaf + `]`, false},
		{"two-node cycle", `[{"f":0,"t":1,"l":1,"r":1},{"f":0,"t":1,"l":0,"r":0}]`, false},
		{"out of range", `[{"f":0,"t":1,"l":1,"r":7},` + leaf + `]`, false},
		{"shared child", `[{"f":0,"t":1,"l":1,"r":1},` + leaf + `]`, false},
	}
	wrap := map[string]string{
		"DTC":  `{"tree":{"nodes":%s},"n_feat":1}`,
		"RF":   `{"trees":[{"nodes":%s}],"n_feat":1,"n_class":2}`,
		"GBDT": `{"rounds":[[{"nodes":%s}]],"prior":[0],"n_feat":1,"n_class":1,"lr":0.2}`,
	}
	for kind, format := range wrap {
		for _, tc := range cases {
			payload := fmt.Sprintf(format, tc.nodes)
			_, err := LoadModel(&SavedModel{Kind: kind, Model: []byte(payload)})
			if (err == nil) != tc.ok {
				t.Errorf("%s, %s: LoadModel error %v, want loaded=%v", kind, tc.name, err, tc.ok)
			}
		}
	}
}

func TestFlattenUnflattenIdentity(t *testing.T) {
	ds := xorDataset(200, 13)
	m := NewDecisionTree(TreeConfig{Seed: 1})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	dto := toTreeDTO(m.root)
	back, err := fromTreeDTO(dto)
	if err != nil {
		t.Fatal(err)
	}
	if depth(back) != depth(m.root) {
		t.Errorf("depth changed: %d -> %d", depth(m.root), depth(back))
	}
}
