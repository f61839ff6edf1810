package profiler

import (
	"encoding/json"
	"strings"
	"testing"

	"cocg/internal/gamesim"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, spec := range []*gamesim.GameSpec{gamesim.Contra(), gamesim.DevilMayCry()} {
		p := buildFor(t, spec, 2)
		blob, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		var back Profile
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", spec.Name, err)
		}
		if back.Game != p.Game || back.LoadingClusterID != p.LoadingClusterID {
			t.Errorf("%s: identity changed", spec.Name)
		}
		if back.NumStageTypes() != p.NumStageTypes() {
			t.Errorf("%s: catalog size changed", spec.Name)
		}
		// The stored peak is the catalog fold on both construction paths.
		if p.PeakDemand() != p.catalogPeak() || back.PeakDemand() != p.PeakDemand() {
			t.Errorf("%s: PeakDemand built %v, loaded %v, catalog fold %v",
				spec.Name, p.PeakDemand(), back.PeakDemand(), p.catalogPeak())
		}
		// The loaded profile classifies and detects identically.
		tr, err := gamesim.Record(spec, 0, 999)
		if err != nil {
			t.Fatal(err)
		}
		frames := tr.FrameVectors()
		for i, f := range frames {
			if back.ClassifyFrame(f) != p.ClassifyFrame(f) {
				t.Fatalf("%s: frame %d classified differently", spec.Name, i)
			}
		}
		a := p.DetectStages(frames)
		b := back.DetectStages(frames)
		if len(a) != len(b) {
			t.Fatalf("%s: detection segment count changed", spec.Name)
		}
		for i := range a {
			if a[i].StageID != b[i].StageID || a[i].Loading != b[i].Loading {
				t.Fatalf("%s: segment %d changed", spec.Name, i)
			}
		}
	}
}

func TestProfileJSONRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"no centroids":    `{"game":"X","centroids":[],"catalog":[{"ID":0,"Loading":true,"ClusterSet":[0]}]}`,
		"no catalog":      `{"game":"X","centroids":[[1,2,3,4]],"catalog":[]}`,
		"first not load":  `{"game":"X","centroids":[[1,2,3,4]],"catalog":[{"ID":0,"Loading":false,"ClusterSet":[0]}]}`,
		"bad loading id":  `{"game":"X","centroids":[[1,2,3,4]],"loading_cluster":5,"catalog":[{"ID":0,"Loading":true,"ClusterSet":[0]}]}`,
		"bad cluster ref": `{"game":"X","centroids":[[1,2,3,4]],"catalog":[{"ID":0,"Loading":true,"ClusterSet":[9]}]}`,
	}
	for name, doc := range cases {
		var p Profile
		if err := json.Unmarshal([]byte(doc), &p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The detector's cluster set is a 64-bit mask: one cluster more is refused
	// with an error that names the limit, exactly MaxClusters loads.
	many := func(n int) string {
		return `{"game":"X","centroids":[` + strings.TrimSuffix(strings.Repeat("[1,2,3,4],", n), ",") +
			`],"catalog":[{"ID":0,"Loading":true,"ClusterSet":[0]}]}`
	}
	var p Profile
	if err := json.Unmarshal([]byte(many(MaxClusters+1)), &p); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("%d clusters: err = %v, want one naming the limit of 64", MaxClusters+1, err)
	}
	if err := json.Unmarshal([]byte(many(MaxClusters)), &p); err != nil {
		t.Errorf("%d clusters refused: %v", MaxClusters, err)
	}
}
