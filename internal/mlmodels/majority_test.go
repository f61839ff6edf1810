package mlmodels

import "testing"

func TestMajorityBaseline(t *testing.T) {
	samples := []Sample{
		{Features: []float64{1}, Label: 2},
		{Features: []float64{2}, Label: 2},
		{Features: []float64{3}, Label: 0},
	}
	ds, err := NewDataset(samples)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMajority()
	if _, err := m.Predict([]float64{1}); err != ErrNotFitted {
		t.Errorf("unfitted err = %v", err)
	}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 5, 100} {
		got, err := m.Predict([]float64{x})
		if err != nil || got != 2 {
			t.Errorf("Predict(%v) = %d, %v", x, got, err)
		}
	}
	if _, err := m.Predict([]float64{1, 2}); err != ErrBadFeatureLen {
		t.Errorf("bad length err = %v", err)
	}
	if err := m.Fit(nil); err != ErrEmptyDataset {
		t.Errorf("nil fit err = %v", err)
	}
}

func TestTreesBeatFloorBaselines(t *testing.T) {
	// On the XOR task Majority is ~50 %; the trees must clear it
	// comfortably.
	ds := xorDataset(600, 34)
	train, test := ds.Split(0.75, 7)
	floor := NewMajority()
	if err := floor.Fit(train); err != nil {
		t.Fatal(err)
	}
	floorAcc, _ := Evaluate(floor, test)
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
