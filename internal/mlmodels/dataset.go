// Package mlmodels implements the three classifiers the paper trains for
// next-stage prediction (Section IV-B1): a CART Decision Tree Classifier
// (DTC), a Random Forest (RF), and Gradient Boosted Decision Trees (GBDT).
// All three are written from scratch on the standard library so the
// repository has no external dependencies.
//
// Fit runs on its caller's goroutine: a fit is a serial kernel, and training
// parallelism lives above it, one game per worker (core.Train). Fitted
// models are immutable and safe for concurrent Predict calls; Fit itself
// must not run concurrently on one model value.
package mlmodels

import (
	"errors"
	"fmt"
	"math/rand"
)

// Sample is one labeled training example: a feature vector and a class label
// in [0, NumClasses).
type Sample struct {
	Features []float64
	Label    int
}

// Dataset is a labeled classification dataset.
type Dataset struct {
	Samples     []Sample
	NumFeatures int
	NumClasses  int
}

// Errors returned by dataset validation and model training.
var (
	ErrEmptyDataset   = errors.New("mlmodels: empty dataset")
	ErrNotFitted      = errors.New("mlmodels: model not fitted")
	ErrBadFeatureLen  = errors.New("mlmodels: feature vector length mismatch")
	ErrInvalidization = errors.New("mlmodels: invalid dataset")
)

// NewDataset builds a dataset from samples, inferring NumFeatures and
// NumClasses, and validates shape consistency.
func NewDataset(samples []Sample) (*Dataset, error) {
	if len(samples) == 0 {
		return nil, ErrEmptyDataset
	}
	nf := len(samples[0].Features)
	nc := 0
	for i, s := range samples {
		if len(s.Features) != nf {
			return nil, fmt.Errorf("%w: sample %d has %d features, want %d",
				ErrInvalidization, i, len(s.Features), nf)
		}
		if s.Label < 0 {
			return nil, fmt.Errorf("%w: sample %d has negative label", ErrInvalidization, i)
		}
		if s.Label+1 > nc {
			nc = s.Label + 1
		}
	}
	return &Dataset{Samples: samples, NumFeatures: nf, NumClasses: nc}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Split partitions the dataset into a training set with trainFrac of the
// samples (randomly selected with the given seed) and a test set with the
// remainder — the paper's 75 %/25 % split (Section V-D2).
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	n := len(d.Samples)
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(trainFrac * float64(n))
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain > n {
		nTrain = n
	}
	tr := make([]Sample, 0, nTrain)
	te := make([]Sample, 0, n-nTrain)
	for i, j := range idx {
		if i < nTrain {
			tr = append(tr, d.Samples[j])
		} else {
			te = append(te, d.Samples[j])
		}
	}
	train = &Dataset{Samples: tr, NumFeatures: d.NumFeatures, NumClasses: d.NumClasses}
	test = &Dataset{Samples: te, NumFeatures: d.NumFeatures, NumClasses: d.NumClasses}
	return train, test
}

// Classifier is the common interface of DTC, RF, and GBDT. A Classifier must
// be fitted before Predict is called.
type Classifier interface {
	// Fit trains the model on ds.
	Fit(ds *Dataset) error
	// Predict returns the predicted class for one feature vector.
	Predict(features []float64) (int, error)
	// Name returns the paper's abbreviation for the algorithm.
	Name() string
}

// Evaluate returns the fraction of test samples the classifier labels
// correctly. Callers that evaluate in a loop should reuse an EvalScratch.
func Evaluate(c Classifier, test *Dataset) (float64, error) {
	var s EvalScratch
	return s.Evaluate(c, test)
}

// EvalScratch holds the reusable prediction output of repeated evaluations,
// so scoring many models or many splits in a loop does not re-allocate per
// call. The zero value is ready to use; a scratch must not be shared between
// goroutines.
type EvalScratch struct {
	out []int
}

// Evaluate scores the classifier on the test set.
func (s *EvalScratch) Evaluate(c Classifier, test *Dataset) (float64, error) {
	if test.Len() == 0 {
		return 0, ErrEmptyDataset
	}
	preds, err := s.Predict(c, test)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, smp := range test.Samples {
		if preds[i] == smp.Label {
			correct++
		}
	}
	return float64(correct) / float64(test.Len()), nil
}

// Predict fills and returns the scratch's prediction buffer with c's label
// for every sample. The returned slice is valid until the next use of the
// scratch.
func (s *EvalScratch) Predict(c Classifier, ds *Dataset) ([]int, error) {
	n := ds.Len()
	if cap(s.out) < n {
		s.out = make([]int, n)
	}
	out := s.out[:n]
	for i, smp := range ds.Samples {
		p, err := c.Predict(smp.Features)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
