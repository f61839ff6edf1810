package mlmodels

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// synthDataset generates a learnable 3-class dataset: class determined by
// which of three feature regions the point falls in, plus noise features.
func synthDataset(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		label := r.Intn(3)
		f := make([]float64, 5)
		// Informative features 0 and 1.
		f[0] = float64(label)*10 + r.Float64()*4
		f[1] = float64(2-label)*8 + r.Float64()*3
		// Noise features.
		f[2], f[3], f[4] = r.Float64()*100, r.Float64()*100, r.Float64()*100
		samples[i] = Sample{Features: f, Label: label}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		panic(err)
	}
	return ds
}

// xorDataset is non-linearly separable: label = (x>0.5) XOR (y>0.5).
func xorDataset(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		x, y := r.Float64(), r.Float64()
		label := 0
		if (x > 0.5) != (y > 0.5) {
			label = 1
		}
		samples[i] = Sample{Features: []float64{x, y}, Label: label}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		panic(err)
	}
	return ds
}

func allModels() []Classifier {
	return []Classifier{
		NewDecisionTree(TreeConfig{Seed: 1}),
		NewRandomForest(ForestConfig{NumTrees: 25, Seed: 1}),
		NewGBDT(GBDTConfig{NumRounds: 25, Seed: 1}),
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err != ErrEmptyDataset {
		t.Errorf("nil samples err = %v", err)
	}
	_, err := NewDataset([]Sample{
		{Features: []float64{1, 2}, Label: 0},
		{Features: []float64{1}, Label: 1},
	})
	if err == nil {
		t.Error("ragged features did not error")
	}
	_, err = NewDataset([]Sample{{Features: []float64{1}, Label: -1}})
	if err == nil {
		t.Error("negative label did not error")
	}
	ds, err := NewDataset([]Sample{
		{Features: []float64{1, 2}, Label: 0},
		{Features: []float64{3, 4}, Label: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures != 2 || ds.NumClasses != 3 {
		t.Errorf("inferred shape = (%d, %d)", ds.NumFeatures, ds.NumClasses)
	}
}

func TestSplitFractions(t *testing.T) {
	ds := synthDataset(100, 1)
	train, test := ds.Split(0.75, 42)
	if train.Len() != 75 || test.Len() != 25 {
		t.Errorf("split sizes = %d/%d", train.Len(), test.Len())
	}
	if train.NumClasses != ds.NumClasses || test.NumFeatures != ds.NumFeatures {
		t.Error("split lost dataset shape")
	}
	// Degenerate fractions stay within bounds.
	tr, te := ds.Split(0, 1)
	if tr.Len() != 1 || te.Len() != 99 {
		t.Errorf("Split(0) sizes = %d/%d", tr.Len(), te.Len())
	}
	tr, te = ds.Split(2, 1)
	if tr.Len() != 100 || te.Len() != 0 {
		t.Errorf("Split(2) sizes = %d/%d", tr.Len(), te.Len())
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	ds := synthDataset(60, 2)
	train, test := ds.Split(0.5, 7)
	if train.Len()+test.Len() != ds.Len() {
		t.Errorf("split lost samples: %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
}

func TestModelsLearnSeparableData(t *testing.T) {
	ds := synthDataset(400, 3)
	train, test := ds.Split(0.75, 9)
	for _, m := range allModels() {
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s Fit: %v", m.Name(), err)
		}
		acc, err := Evaluate(m, test)
		if err != nil {
			t.Fatalf("%s Evaluate: %v", m.Name(), err)
		}
		if acc < 0.9 {
			t.Errorf("%s accuracy = %.3f on separable data, want >= 0.9", m.Name(), acc)
		}
	}
}

func TestModelsLearnXOR(t *testing.T) {
	ds := xorDataset(600, 4)
	train, test := ds.Split(0.75, 5)
	for _, m := range allModels() {
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s Fit: %v", m.Name(), err)
		}
		acc, err := Evaluate(m, test)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.85 {
			t.Errorf("%s accuracy = %.3f on XOR, want >= 0.85", m.Name(), acc)
		}
	}
}

func TestPredictBeforeFit(t *testing.T) {
	for _, m := range allModels() {
		if _, err := m.Predict([]float64{1, 2}); err != ErrNotFitted {
			t.Errorf("%s unfitted Predict err = %v", m.Name(), err)
		}
	}
}

func TestFitEmptyDataset(t *testing.T) {
	empty := &Dataset{}
	for _, m := range allModels() {
		if err := m.Fit(empty); err != ErrEmptyDataset {
			t.Errorf("%s Fit(empty) err = %v", m.Name(), err)
		}
		if err := m.Fit(nil); err != ErrEmptyDataset {
			t.Errorf("%s Fit(nil) err = %v", m.Name(), err)
		}
	}
}

func TestPredictWrongFeatureLen(t *testing.T) {
	ds := synthDataset(50, 5)
	for _, m := range allModels() {
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Predict([]float64{1}); err != ErrBadFeatureLen {
			t.Errorf("%s wrong-length Predict err = %v", m.Name(), err)
		}
	}
}

func TestSingleClassDataset(t *testing.T) {
	samples := make([]Sample, 20)
	for i := range samples {
		samples[i] = Sample{Features: []float64{float64(i), 1}, Label: 0}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModels() {
		if err := m.Fit(ds); err != nil {
			t.Fatalf("%s Fit single-class: %v", m.Name(), err)
		}
		got, err := m.Predict([]float64{5, 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("%s predicted %d for single-class data", m.Name(), got)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	ds := synthDataset(200, 6)
	test := synthDataset(50, 7)
	for _, mk := range []func() Classifier{
		func() Classifier { return NewDecisionTree(TreeConfig{Seed: 3}) },
		func() Classifier { return NewRandomForest(ForestConfig{NumTrees: 10, Seed: 3}) },
		func() Classifier { return NewGBDT(GBDTConfig{NumRounds: 10, Seed: 3}) },
	} {
		a, b := mk(), mk()
		if err := a.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(ds); err != nil {
			t.Fatal(err)
		}
		for _, s := range test.Samples {
			pa, _ := a.Predict(s.Features)
			pb, _ := b.Predict(s.Features)
			if pa != pb {
				t.Fatalf("%s not deterministic", a.Name())
			}
		}
	}
}

func TestForestNumTreesAndTreeDepth(t *testing.T) {
	ds := synthDataset(100, 8)
	f := NewRandomForest(ForestConfig{NumTrees: 7, Seed: 1})
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 7 {
		t.Errorf("NumTrees = %d", f.NumTrees())
	}
	dt := NewDecisionTree(TreeConfig{MaxDepth: 3, Seed: 1})
	if err := dt.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if d := dt.Depth(); d > 4 {
		t.Errorf("Depth = %d, want <= MaxDepth+1", d)
	}
	g := NewGBDT(GBDTConfig{NumRounds: 5, Seed: 1})
	if err := g.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if g.Rounds() != 5 {
		t.Errorf("Rounds = %d", g.Rounds())
	}
}

func TestEvaluateEmptyTest(t *testing.T) {
	ds := synthDataset(20, 9)
	m := NewDecisionTree(TreeConfig{Seed: 1})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(m, &Dataset{}); err != ErrEmptyDataset {
		t.Errorf("Evaluate empty err = %v", err)
	}
}

func TestPropertyPredictionsInRange(t *testing.T) {
	f := func(seed int64) bool {
		ds := synthDataset(80, seed)
		for _, m := range allModels() {
			if err := m.Fit(ds); err != nil {
				return false
			}
			for _, s := range ds.Samples[:10] {
				p, err := m.Predict(s.Features)
				if err != nil || p < 0 || p >= ds.NumClasses {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTrainAccuracyHigh(t *testing.T) {
	// A full-depth decision tree must fit the training data near-perfectly
	// when features distinguish the samples.
	f := func(seed int64) bool {
		ds := synthDataset(120, seed)
		m := NewDecisionTree(TreeConfig{MaxDepth: 25, Seed: seed})
		if err := m.Fit(ds); err != nil {
			return false
		}
		acc, err := Evaluate(m, ds)
		return err == nil && acc > 0.98
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestSoftmax(t *testing.T) {
	out := make([]float64, 3)
	softmaxInto([]float64{1000, 1000, 1000}, out)
	for _, p := range out {
		if p < 0.33 || p > 0.34 {
			t.Errorf("uniform softmax = %v", out)
		}
	}
	softmaxInto([]float64{100, 0, 0}, out)
	if out[0] < 0.999 {
		t.Errorf("dominant softmax = %v", out)
	}
	var sum float64
	for _, p := range out {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("softmax sum = %v", sum)
	}
}

// majorityAccuracy is the accuracy on test of always predicting train's most
// frequent label — the absolute floor any real model must clear.
func majorityAccuracy(train, test *Dataset) float64 {
	counts := make([]int, train.NumClasses)
	for _, s := range train.Samples {
		counts[s.Label]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	hits := 0
	for _, s := range test.Samples {
		if s.Label == best {
			hits++
		}
	}
	return float64(hits) / float64(test.Len())
}

func TestTreesBeatFloorBaselines(t *testing.T) {
	// On the XOR task the majority floor is ~50 %; the trees must clear it
	// comfortably.
	ds := xorDataset(600, 34)
	train, test := ds.Split(0.75, 7)
	floorAcc := majorityAccuracy(train, test)
	for _, m := range allModels() {
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		acc, _ := Evaluate(m, test)
		if acc <= floorAcc+0.2 {
			t.Errorf("%s accuracy %.3f does not clear the majority floor %.3f", m.Name(), acc, floorAcc)
		}
	}
}
