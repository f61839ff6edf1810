package mlmodels

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// dupDataset stresses tie handling: features live on a tiny value grid, so
// every column is packed with duplicate values — including ties that
// straddle class boundaries and, downstream, tie runs widened further by
// bootstrap duplication. This is the dataset where an undefined tie order
// would diverge first.
func dupDataset(n int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		f := make([]float64, 6)
		for d := range f {
			f[d] = float64(r.Intn(4))
		}
		label := int(f[0]+f[1]) % 3
		if r.Intn(5) == 0 {
			label = r.Intn(3)
		}
		samples[i] = Sample{Features: f, Label: label}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		panic(err)
	}
	return ds
}

// goldenDatasets are the fixtures the equivalence suite sweeps: cleanly
// separable, XOR-entangled, and duplicate-heavy.
func goldenDatasets() map[string]*Dataset {
	return map[string]*Dataset{
		"synth": synthDataset(300, 4),
		"xor":   xorDataset(400, 5),
		"dup":   dupDataset(250, 6),
	}
}

// mustMarshal serializes a fitted model (or an oracle) through its
// MarshalJSON — every node is written, split, threshold and leaf payload, so
// byte equality here means split-for-split, threshold-for-threshold
// identical models.
func mustMarshal(t testing.TB, m json.Marshaler) []byte {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal %T: %v", m, err)
	}
	return raw
}

// TestDTCFitMatchesLegacyGolden proves the pre-sorted trainer reproduces
// the legacy builder byte-for-byte across seeds, depths and feature subsets
// (which exercise the shared RNG stream).
func TestDTCFitMatchesLegacyGolden(t *testing.T) {
	cfgs := []TreeConfig{
		{Seed: 1},
		{Seed: 7, MaxDepth: 3},
		{Seed: 11, MaxDepth: 25},
		{Seed: 3, FeatureSubset: 2},
		{Seed: 5, FeatureSubset: 1, MaxDepth: 6},
	}
	for name, ds := range goldenDatasets() {
		for _, cfg := range cfgs {
			ref, err := NewDecisionTree(cfg).fitLegacy(ds)
			if err != nil {
				t.Fatalf("%s %+v: legacy fit: %v", name, cfg, err)
			}
			got := NewDecisionTree(cfg)
			if err := got.Fit(ds); err != nil {
				t.Fatalf("%s %+v: fit: %v", name, cfg, err)
			}
			if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, ref)) {
				t.Errorf("%s %+v: pre-sorted DTC differs from legacy builder", name, cfg)
			}
		}
	}
}

// TestRFFitMatchesLegacyGolden covers the bagged path: bootstrap weights,
// index compaction, and per-tree RNG streams must reproduce the legacy
// forest — trees AND the out-of-bag estimate.
func TestRFFitMatchesLegacyGolden(t *testing.T) {
	cfgs := []ForestConfig{
		{NumTrees: 12, Seed: 2},
		{NumTrees: 8, Seed: 9, Tree: TreeConfig{MaxDepth: 4}},
		{NumTrees: 8, Seed: 4, Tree: TreeConfig{FeatureSubset: 3}},
	}
	for name, ds := range goldenDatasets() {
		for _, cfg := range cfgs {
			ref, err := NewRandomForest(cfg).fitLegacy(ds)
			if err != nil {
				t.Fatalf("%s %+v: legacy fit: %v", name, cfg, err)
			}
			got := NewRandomForest(cfg)
			if err := got.Fit(ds); err != nil {
				t.Fatalf("%s %+v: fit: %v", name, cfg, err)
			}
			if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, ref)) {
				t.Errorf("%s %+v: pre-sorted RF differs from legacy builder", name, cfg)
			}
		}
	}
}

// TestGBDTFitMatchesLegacyGolden covers the regression path, where the tie
// order inside equal-value runs is observable in the float split scores:
// the stable legacy sort and the column index's (value, row id) order must
// fold residuals identically, round after round.
func TestGBDTFitMatchesLegacyGolden(t *testing.T) {
	cfgs := []GBDTConfig{
		{NumRounds: 8, Seed: 2},
		{NumRounds: 5, Seed: 7, Tree: TreeConfig{MaxDepth: 6}},
		{NumRounds: 5, Seed: 3, Tree: TreeConfig{FeatureSubset: 2}},
	}
	for name, ds := range goldenDatasets() {
		for _, cfg := range cfgs {
			ref, err := NewGBDT(cfg).fitLegacy(ds)
			if err != nil {
				t.Fatalf("%s %+v: legacy fit: %v", name, cfg, err)
			}
			got := NewGBDT(cfg)
			if err := got.Fit(ds); err != nil {
				t.Fatalf("%s %+v: fit: %v", name, cfg, err)
			}
			if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, ref)) {
				t.Errorf("%s %+v: pre-sorted GBDT differs from legacy builder", name, cfg)
			}
		}
	}
}

// TestFitScratchReuse proves refitting through the same model (the online
// learner's steady state) reuses the arena without contaminating results:
// a model refit on a second dataset matches a fresh model fit on it.
func TestFitScratchReuse(t *testing.T) {
	first := synthDataset(300, 4)
	second := dupDataset(250, 6)

	dtc := NewDecisionTree(TreeConfig{Seed: 3})
	if err := dtc.Fit(first); err != nil {
		t.Fatal(err)
	}
	if err := dtc.Fit(second); err != nil {
		t.Fatal(err)
	}
	fresh := NewDecisionTree(TreeConfig{Seed: 3})
	if err := fresh.Fit(second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, dtc), mustMarshal(t, fresh)) {
		t.Error("DTC refit through a reused arena differs from a fresh fit")
	}

	rf := NewRandomForest(ForestConfig{NumTrees: 8, Seed: 3})
	if err := rf.Fit(first); err != nil {
		t.Fatal(err)
	}
	if err := rf.Fit(second); err != nil {
		t.Fatal(err)
	}
	freshRF := NewRandomForest(ForestConfig{NumTrees: 8, Seed: 3})
	if err := freshRF.Fit(second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, rf), mustMarshal(t, freshRF)) {
		t.Error("RF refit through a reused arena differs from a fresh fit")
	}

	gb := NewGBDT(GBDTConfig{NumRounds: 4, Seed: 3})
	if err := gb.Fit(first); err != nil {
		t.Fatal(err)
	}
	if err := gb.Fit(second); err != nil {
		t.Fatal(err)
	}
	freshGB := NewGBDT(GBDTConfig{NumRounds: 4, Seed: 3})
	if err := freshGB.Fit(second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, gb), mustMarshal(t, freshGB)) {
		t.Error("GBDT refit through a reused arena differs from a fresh fit")
	}
}

// TestFitSteadyStateAllocationFree gates the split kernel: with a prepared
// arena, one full node cycle — bag reset, class counts, candidate draw
// (including the rng.Shuffle of a proper feature subset), best-split scan
// over every feature, and partition propagation — allocates nothing, for
// both the classification and regression kernels.
func TestFitSteadyStateAllocationFree(t *testing.T) {
	ds := synthDataset(512, 3)
	var s fitScratch
	ts := s.prepare(ds, 12)
	rng := rand.New(rand.NewSource(1))

	classCycle := func(subset int) {
		ts.beginFull()
		ts.countNode(0, ts.m)
		feats := ts.candidateFeaturesInto(subset, rng)
		feat, c := ts.bestSplit(feats, 0, ts.m, float64(ts.m), false)
		if !c.ok {
			t.Fatal("no classification split found")
		}
		// Exercise both mark paths: the boundary-reuse fast path and the
		// compare-pass fallback.
		ts.markPrefix(feat, 0, ts.m, c.bi+1)
		ts.markClass(feat, c.thr, 0, ts.m)
		ts.propagate(0, ts.m, true, true, feat)
	}
	if allocs := testing.AllocsPerRun(50, func() { classCycle(0) }); allocs != 0 {
		t.Errorf("classification split cycle allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { classCycle(2) }); allocs != 0 {
		t.Errorf("feature-subset split cycle allocates %v/op, want 0", allocs)
	}

	for r := 0; r < ds.Len(); r++ {
		ts.tgt[r] = float64(ds.Samples[r].Label) + 0.25*float64(r%3)
	}
	regCycle := func() {
		ts.beginFull()
		feats := ts.candidateFeaturesInto(0, rng)
		feat, c := ts.bestSplit(feats, 0, ts.m, float64(ts.m), true)
		if !c.ok {
			t.Fatal("no regression split found")
		}
		ts.markReg(feat, c.thr, 0, ts.m)
		ts.propagate(0, ts.m, true, true, feat)
	}
	if allocs := testing.AllocsPerRun(50, regCycle); allocs != 0 {
		t.Errorf("regression split cycle allocates %v/op, want 0", allocs)
	}
}

// legacyFitter is a model with a legacy oracle (legacy_test.go).
type legacyFitter interface {
	Classifier
	json.Marshaler
	fitLegacy(ds *Dataset) (*oracle, error)
}

// fitBoth fits the legacy oracle and then m, with m's configuration, on ds.
func fitBoth(t testing.TB, m legacyFitter, ds *Dataset) *oracle {
	t.Helper()
	ref, err := m.fitLegacy(ds)
	if err == nil {
		err = m.Fit(ds)
	}
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return ref
}

// FuzzFitMatchesLegacy runs random small datasets — any size, width and
// class count, continuous or on a duplicate-heavy value grid — through Fit
// and the legacy oracle for every kind, depth and FeatureSubset:
// the JSON must be equal, and Predict equal to the oracle's pointer walk on
// the training rows and on fresh queries.
func FuzzFitMatchesLegacy(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(60), uint8(3), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(40), uint8(5), uint8(3), uint8(3), uint8(0), uint8(2))
	f.Add(int64(3), uint8(2), uint8(50), uint8(2), uint8(4), uint8(1), uint8(3), uint8(0))
	f.Add(int64(4), uint8(0), uint8(7), uint8(1), uint8(0), uint8(2), uint8(8), uint8(1))
	f.Add(int64(5), uint8(1), uint8(0), uint8(4), uint8(1), uint8(0), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kind, n, nfeat, nclass, grid, depth, subset uint8) {
		r := rand.New(rand.NewSource(seed))
		nf, nc, g := 1+int(nfeat)%6, 1+int(nclass)%5, int(grid)%6
		// grid 0 draws continuous values; otherwise every feature takes one
		// of g+1 integers, so tie runs are long and cross class boundaries.
		value := func() float64 {
			if g == 0 {
				return r.Float64()
			}
			return float64(r.Intn(g + 1))
		}
		samples := make([]Sample, 2+int(n)%80)
		for i := range samples {
			x := make([]float64, nf)
			sum := 0.0
			for d := range x {
				x[d] = value()
				sum += x[d] * float64(d%3)
			}
			label := int(sum*2) % nc
			if r.Intn(4) == 0 {
				label = r.Intn(nc)
			}
			samples[i] = Sample{Features: x, Label: label}
		}
		ds := &Dataset{Samples: samples, NumFeatures: nf, NumClasses: nc}
		tree := TreeConfig{Seed: seed, MaxDepth: int(depth) % 9, FeatureSubset: int(subset) % (nf + 1)}
		var m legacyFitter
		switch kind % 3 {
		case 0:
			m = NewDecisionTree(tree)
		case 1:
			m = NewRandomForest(ForestConfig{NumTrees: 6, Tree: tree, Seed: seed})
		default:
			m = NewGBDT(GBDTConfig{NumRounds: 4, Tree: tree, Seed: seed})
		}
		ref := fitBoth(t, m, ds)
		if got, want := mustMarshal(t, m), mustMarshal(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the oracle:\n%s\n%s", m.Name(), got, want)
		}
		qs := queries(r, 40, nf)
		for _, x := range qs {
			for d := range x {
				x[d] *= float64(g + 1)
			}
		}
		for _, s := range samples {
			qs = append(qs, s.Features)
		}
		for qi, x := range qs {
			got, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.predict(x); got != want {
				t.Fatalf("%s query %d: Predict %d, oracle %d", m.Name(), qi, got, want)
			}
		}
	})
}

// TestRefitAllocsIndependentOfNodeCount gates the arena: a refit allocates
// its result arena once, not a heap object per node, so a dataset that grows
// at least 4× the nodes costs a refit no more allocations. Both datasets
// share rows and features; only the labels differ — a clean threshold on
// feature 0, or noise.
func TestRefitAllocsIndependentOfNodeCount(t *testing.T) {
	labelled := func(noise bool) *Dataset {
		r := rand.New(rand.NewSource(5))
		ds := synthDataset(400, 5)
		for i := range ds.Samples {
			ds.Samples[i].Label = ds.Samples[i].Label % 2
			if noise {
				ds.Samples[i].Label = r.Intn(2)
			}
		}
		ds.NumClasses = 2
		return ds
	}
	few, many := labelled(false), labelled(true)
	for _, mk := range []func() Classifier{
		func() Classifier { return NewDecisionTree(TreeConfig{Seed: 1}) },
		func() Classifier { return NewRandomForest(ForestConfig{NumTrees: 8, Seed: 1}) },
		func() Classifier { return NewGBDT(GBDTConfig{NumRounds: 6, Seed: 1}) },
	} {
		refit := func(ds *Dataset) (allocs float64, nodes int) {
			m := mk()
			allocs = testing.AllocsPerRun(3, func() {
				if err := m.Fit(ds); err != nil {
					t.Fatal(err)
				}
			})
			return allocs, shape(m)[1]
		}
		aFew, nFew := refit(few)
		aMany, nMany := refit(many)
		name := mk().Name()
		t.Logf("%s: %d nodes %v allocs, %d nodes %v allocs", name, nFew, aFew, nMany, aMany)
		if nMany < 4*nFew {
			t.Fatalf("%s fixture: %d nodes against %d, want at least 4x", name, nMany, nFew)
		}
		if aMany > aFew {
			t.Errorf("%s: a refit growing %d nodes allocates %v times, one growing %d allocates %v", name, nMany, aMany, nFew, aFew)
		}
	}
}
