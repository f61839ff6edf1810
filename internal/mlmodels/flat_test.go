package mlmodels

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// randDataset synthesizes a labeled dataset with learnable structure; shape
// parameters vary per seed so the property tests cover many tree geometries
// (shallow/deep, few/many classes, more classes than scratchClasses is not
// reachable here but large feature counts are).
func randDataset(t *testing.T, r *rand.Rand, n, nfeat, nclass int) *Dataset {
	t.Helper()
	samples := make([]Sample, n)
	for i := range samples {
		f := make([]float64, nfeat)
		score := 0.0
		for d := range f {
			f[d] = r.Float64()
			score += f[d] * float64(d%4)
		}
		samples[i] = Sample{Features: f, Label: (int(score*3) + i%2) % nclass}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	ds.NumClasses = nclass
	return ds
}

// queries draws fresh feature vectors (not from the training set) so the
// equivalence checks also exercise paths no training sample took.
func queries(r *rand.Rand, n, nfeat int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, nfeat)
		for d := range x {
			x[d] = r.Float64()*1.4 - 0.2 // deliberately wider than train range
		}
		out[i] = x
	}
	return out
}

// TestFlatMatchesPointer is the arena's core property: for every model the
// arena walk must return exactly the label the legacy oracle's pointer walk
// returns, on every query, over many randomized datasets.
func TestFlatMatchesPointer(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + trial)))
			nfeat := 2 + r.Intn(10)
			nclass := 2 + r.Intn(6)
			ds := randDataset(t, r, 150+r.Intn(300), nfeat, nclass)
			qs := queries(r, 200, nfeat)
			for _, m := range []legacyFitter{
				NewDecisionTree(TreeConfig{Seed: int64(trial)}),
				NewRandomForest(ForestConfig{NumTrees: 12, Seed: int64(trial)}),
				NewGBDT(GBDTConfig{NumRounds: 8, Seed: int64(trial)}),
			} {
				ref := fitBoth(t, m, ds)
				for qi, x := range qs {
					got, err := m.Predict(x)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.predict(x); got != want {
						t.Fatalf("%s query %d: arena predict %d, pointer predict %d", m.Name(), qi, got, want)
					}
				}
			}
		})
	}
}

// TestSerializeRebuildsFlat checks the JSON round-trip rebuilds the arenas: a
// deserialized model must predict identically to the original on fresh
// queries (the deserialized model's Predict runs on its decoded arena, so
// equality here proves the arena was rebuilt correctly).
func TestSerializeRebuildsFlat(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nfeat, nclass := 7, 4
	ds := randDataset(t, r, 350, nfeat, nclass)
	qs := queries(r, 250, nfeat)

	models := []Classifier{
		NewDecisionTree(TreeConfig{Seed: 5}),
		NewRandomForest(ForestConfig{NumTrees: 10, Seed: 5}),
		NewGBDT(GBDTConfig{NumRounds: 6, Seed: 5}),
	}
	for _, m := range models {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		saved, err := SaveModel(m)
		if err != nil {
			t.Fatalf("%s: save: %v", m.Name(), err)
		}
		// Force a real encode/decode cycle.
		blob, err := json.Marshal(saved)
		if err != nil {
			t.Fatal(err)
		}
		var reload SavedModel
		if err := json.Unmarshal(blob, &reload); err != nil {
			t.Fatal(err)
		}
		m2, err := LoadModel(&reload)
		if err != nil {
			t.Fatalf("%s: load: %v", m.Name(), err)
		}
		for i, x := range qs {
			want, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m2.Predict(x)
			if err != nil {
				t.Fatalf("%s: reloaded predict: %v", m.Name(), err)
			}
			if got != want {
				t.Fatalf("%s query %d: reloaded model predicts %d, original %d", m.Name(), i, got, want)
			}
		}
	}
}

// TestEvalScratchReuse checks a scratch reused across datasets of different
// sizes returns the same accuracies as fresh Evaluate calls.
func TestEvalScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	m := NewRandomForest(ForestConfig{NumTrees: 8, Seed: 4})
	big := randDataset(t, r, 500, 5, 4)
	if err := m.Fit(big); err != nil {
		t.Fatal(err)
	}
	var scratch EvalScratch
	sets := []*Dataset{big, randDataset(t, r, 50, 5, 4), randDataset(t, r, 220, 5, 4)}
	for i, ds := range sets {
		got, err := scratch.Evaluate(m, ds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(m, ds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("set %d: scratch accuracy %v, fresh accuracy %v", i, got, want)
		}
	}
}
