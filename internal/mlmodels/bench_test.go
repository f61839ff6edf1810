package mlmodels

import (
	"math/rand"
	"testing"
)

// benchFixture is the shared prediction-benchmark setup: one fitted model per
// algorithm over a dataset shaped like the stage-transition features the
// online loop feeds the ensembles (8 features, 5 stage classes).
type benchFixture struct {
	ds  *Dataset
	xs  [][]float64
	dtc *DecisionTree
	rf  *RandomForest
	gb  *GBDT
}

// benchDataset builds the benchmark corpus: 2000 stage transitions with 8
// features over 5 stage classes, fixed seed.
func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	n := 2000
	samples := make([]Sample, n)
	for i := range samples {
		f := make([]float64, 8)
		score := 0.0
		for d := range f {
			f[d] = r.Float64()
			score += f[d] * float64(d%3)
		}
		samples[i] = Sample{Features: f, Label: int(score+r.Float64()) % 5}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// newBenchFixture trains the fixture; seeds are fixed so every run (and every
// recorded trajectory) measures the same models on the same queries.
func newBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	ds := benchDataset(b)
	fx := &benchFixture{
		ds:  ds,
		dtc: NewDecisionTree(TreeConfig{Seed: 1}),
		rf:  NewRandomForest(ForestConfig{NumTrees: 40, Seed: 1}),
		gb:  NewGBDT(GBDTConfig{NumRounds: 40, Seed: 1}),
	}
	for _, m := range []Classifier{fx.dtc, fx.rf, fx.gb} {
		if err := m.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
	fx.xs = make([][]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		fx.xs[i] = s.Features
	}
	return fx
}

// benchPredict measures steady-state per-call Predict over rotating queries.
func benchPredict(b *testing.B, fx *benchFixture, m Classifier) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(fx.xs[i%len(fx.xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTCPredict(b *testing.B)  { fx := newBenchFixture(b); benchPredict(b, fx, fx.dtc) }
func BenchmarkRFPredict(b *testing.B)   { fx := newBenchFixture(b); benchPredict(b, fx, fx.rf) }
func BenchmarkGBDTPredict(b *testing.B) { fx := newBenchFixture(b); benchPredict(b, fx, fx.gb) }

// benchFitDataset is the training-benchmark corpus: the same feature/label
// shape as benchDataset but 6000 transitions — the steady-state retraining
// regime, where a habit's sample pool has accumulated a few dozen sessions
// (RecordSession appends forever; MaybeTrain refits the whole pool). The
// prediction benchmarks keep the smaller fixture above.
func benchFitDataset(b *testing.B) *Dataset {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	n := 6000
	samples := make([]Sample, n)
	for i := range samples {
		f := make([]float64, 8)
		score := 0.0
		for d := range f {
			f[d] = r.Float64()
			score += f[d] * float64(d%3)
		}
		samples[i] = Sample{Features: f, Label: int(score+r.Float64()) % 5}
	}
	ds, err := NewDataset(samples)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// benchFit measures steady-state training: the same model refits the same
// dataset every iteration, so after the first fit the pre-sorted path runs
// entirely in its reused arena — the online learner's retraining shape. The
// legacy builders — the tests' oracle — are benchmarked through the same
// harness (the *FitLegacy variants below) as the "before" of each fit.
func benchFit(b *testing.B, fit func(*Dataset) error, ds *Dataset) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTCFit(b *testing.B) {
	benchFit(b, NewDecisionTree(TreeConfig{Seed: 1}).Fit, benchFitDataset(b))
}

func BenchmarkDTCFitLegacy(b *testing.B) {
	benchFit(b, legacy(NewDecisionTree(TreeConfig{Seed: 1})), benchFitDataset(b))
}

func BenchmarkRFFit(b *testing.B) {
	benchFit(b, NewRandomForest(ForestConfig{NumTrees: 40, Seed: 1}).Fit, benchFitDataset(b))
}

func BenchmarkRFFitLegacy(b *testing.B) {
	benchFit(b, legacy(NewRandomForest(ForestConfig{NumTrees: 40, Seed: 1})), benchFitDataset(b))
}

func BenchmarkGBDTFit(b *testing.B) {
	benchFit(b, NewGBDT(GBDTConfig{NumRounds: 40, Seed: 1}).Fit, benchFitDataset(b))
}

func BenchmarkGBDTFitLegacy(b *testing.B) {
	benchFit(b, legacy(NewGBDT(GBDTConfig{NumRounds: 40, Seed: 1})), benchFitDataset(b))
}

// legacy adapts a model's oracle trainer to benchFit.
func legacy(m legacyFitter) func(*Dataset) error {
	return func(ds *Dataset) error {
		_, err := m.fitLegacy(ds)
		return err
	}
}
