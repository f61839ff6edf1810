package mlmodels

// Majority always predicts the most frequent training label — the absolute
// accuracy floor any real model must clear.
type Majority struct {
	label  int
	nfeat  int
	fitted bool
}

// NewMajority returns an unfitted majority-class classifier.
func NewMajority() *Majority { return &Majority{} }

// Name implements Classifier.
func (m *Majority) Name() string { return "Majority" }

// Fit implements Classifier.
func (m *Majority) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return ErrEmptyDataset
	}
	counts := make([]int, ds.NumClasses)
	for _, s := range ds.Samples {
		counts[s.Label]++
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	m.label = best
	m.nfeat = ds.NumFeatures
	m.fitted = true
	return nil
}

// Predict implements Classifier.
func (m *Majority) Predict(x []float64) (int, error) {
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != m.nfeat {
		return 0, ErrBadFeatureLen
	}
	return m.label, nil
}
