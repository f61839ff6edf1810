package mlmodels

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// ConfusionMatrix counts (true label, predicted label) pairs.
type ConfusionMatrix struct {
	Classes int
	Counts  [][]int // Counts[true][pred]
}

// Confusion evaluates the classifier on the dataset and returns the matrix.
func Confusion(c Classifier, test *Dataset) (*ConfusionMatrix, error) {
	if test.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	n := test.NumClasses
	m := &ConfusionMatrix{Classes: n, Counts: make([][]int, n)}
	for i := range m.Counts {
		m.Counts[i] = make([]int, n)
	}
	var scratch EvalScratch
	preds, err := scratch.Predict(c, test)
	if err != nil {
		return nil, err
	}
	for i, s := range test.Samples {
		got := preds[i]
		if got < 0 || got >= n {
			return nil, fmt.Errorf("mlmodels: prediction %d out of class range", got)
		}
		m.Counts[s.Label][got]++
	}
	return m, nil
}

// Accuracy returns the trace fraction.
func (m *ConfusionMatrix) Accuracy() float64 {
	var diag, total int
	for i, row := range m.Counts {
		for j, c := range row {
			total += c
			if i == j {
				diag += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// Recall returns the per-class recall (diagonal over row sum); classes never
// seen in the test set report -1.
func (m *ConfusionMatrix) Recall(class int) float64 {
	if class < 0 || class >= m.Classes {
		return -1
	}
	var row int
	for _, c := range m.Counts[class] {
		row += c
	}
	if row == 0 {
		return -1
	}
	return float64(m.Counts[class][class]) / float64(row)
}

// String renders the matrix with row = true class.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	b.WriteString("true\\pred")
	for j := 0; j < m.Classes; j++ {
		fmt.Fprintf(&b, "%6d", j)
	}
	b.WriteByte('\n')
	for i, row := range m.Counts {
		fmt.Fprintf(&b, "%9d", i)
		for _, c := range row {
			fmt.Fprintf(&b, "%6d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FeatureImportance scores each feature by permutation importance: how much
// held-out accuracy drops when that feature's column is shuffled. It is
// model-agnostic and works for all three classifiers.
func FeatureImportance(c Classifier, test *Dataset, seed int64) ([]float64, error) {
	if test.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	var scratch EvalScratch
	base, err := scratch.Evaluate(c, test)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, test.NumFeatures)
	for f := 0; f < test.NumFeatures; f++ {
		// Shuffle column f across a copied dataset.
		perm := rng.Perm(test.Len())
		shuffled := make([]Sample, test.Len())
		for i, s := range test.Samples {
			feat := make([]float64, len(s.Features))
			copy(feat, s.Features)
			feat[f] = test.Samples[perm[i]].Features[f]
			shuffled[i] = Sample{Features: feat, Label: s.Label}
		}
		ds := &Dataset{Samples: shuffled, NumFeatures: test.NumFeatures, NumClasses: test.NumClasses}
		acc, err := scratch.Evaluate(c, ds)
		if err != nil {
			return nil, err
		}
		out[f] = base - acc
	}
	return out, nil
}

// CVResult is one cross-validation summary.
type CVResult struct {
	Folds      int
	Accuracies []float64
}

// Mean returns the mean fold accuracy.
func (r *CVResult) Mean() float64 {
	var s float64
	for _, a := range r.Accuracies {
		s += a
	}
	if len(r.Accuracies) == 0 {
		return 0
	}
	return s / float64(len(r.Accuracies))
}

// CrossValidate runs k-fold cross-validation with a fresh model per fold
// (constructed by mk).
func CrossValidate(mk func() Classifier, ds *Dataset, k int, seed int64) (*CVResult, error) {
	if ds.Len() < k || k < 2 {
		return nil, fmt.Errorf("mlmodels: cannot %d-fold split %d samples", k, ds.Len())
	}
	idx := rand.New(rand.NewSource(seed)).Perm(ds.Len())
	res := &CVResult{Folds: k}
	var scratch EvalScratch
	for fold := 0; fold < k; fold++ {
		var train, test []Sample
		for i, j := range idx {
			if i%k == fold {
				test = append(test, ds.Samples[j])
			} else {
				train = append(train, ds.Samples[j])
			}
		}
		trainDS := &Dataset{Samples: train, NumFeatures: ds.NumFeatures, NumClasses: ds.NumClasses}
		testDS := &Dataset{Samples: test, NumFeatures: ds.NumFeatures, NumClasses: ds.NumClasses}
		m := mk()
		if err := m.Fit(trainDS); err != nil {
			return nil, err
		}
		acc, err := scratch.Evaluate(m, testDS)
		if err != nil {
			return nil, err
		}
		res.Accuracies = append(res.Accuracies, acc)
	}
	sort.Float64s(res.Accuracies)
	return res, nil
}
