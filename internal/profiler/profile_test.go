package profiler

import (
	"testing"

	"cocg/internal/cluster"
	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// buildFor profiles a game from a small corpus; K fixed to the game's true
// cluster count so tests are fast and deterministic.
func buildFor(t *testing.T, spec *gamesim.GameSpec, players int) *Profile {
	t.Helper()
	traces, err := gamesim.RecordCorpus(spec, players, 500)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(traces, Config{K: len(spec.Clusters), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, Config{}); err != ErrNoTraces {
		t.Errorf("err = %v", err)
	}
}

func TestLoadingClusterIdentified(t *testing.T) {
	for _, spec := range []*gamesim.GameSpec{gamesim.Contra(), gamesim.CSGO()} {
		p := buildFor(t, spec, 2)
		cent := p.Clusters.Centroids[p.LoadingClusterID]
		if cent[resources.GPU] > 15 {
			t.Errorf("%s: loading cluster GPU centroid = %v", spec.Name, cent[resources.GPU])
		}
		if cent[resources.CPU] < cent[resources.GPU] {
			t.Errorf("%s: loading cluster not CPU-dominated: %v", spec.Name, cent)
		}
	}
}

func TestIsLoadingFrameMatchesGroundTruth(t *testing.T) {
	spec := gamesim.DevilMayCry()
	p := buildFor(t, spec, 2)
	tr, err := gamesim.Record(spec, 2, 999)
	if err != nil {
		t.Fatal(err)
	}
	var acc, total int
	for i, f := range tr.Frames {
		// Skip boundary frames, which legitimately mix phases.
		if i > 0 && tr.Frames[i-1].Loading != f.Loading {
			continue
		}
		total++
		if p.IsLoadingFrame(f.Demand) == f.Loading {
			acc++
		}
	}
	if frac := float64(acc) / float64(total); frac < 0.95 {
		t.Errorf("loading detection accuracy = %.3f, want >= 0.95", frac)
	}
}

func TestCatalogSizeWithinPaperBound(t *testing.T) {
	// Section IV-A2: a game with N clusters has at most 2^N stage types,
	// and in practice no more than 2N. The discovered catalog (union over
	// all scripts) must respect that bound and must not collapse below the
	// per-script minimum.
	for _, spec := range gamesim.AllGames() {
		p := buildFor(t, spec, 3)
		got := p.NumStageTypes()
		n := len(spec.Clusters)
		if got > 2*n {
			t.Errorf("%s catalog size = %d exceeds 2N = %d", spec.Name, got, 2*n)
		}
		if got < 2 {
			t.Errorf("%s catalog size = %d, want >= 2", spec.Name, got)
		}
	}
}

func TestCatalogPruneMergesRareSignatures(t *testing.T) {
	// Every surviving execution signature must be backed by at least two
	// occurrences once the corpus is large enough.
	p := buildFor(t, gamesim.DevilMayCry(), 3)
	for _, s := range p.Catalog[1:] {
		if s.Count < 2 {
			t.Errorf("stage %d survived pruning with count %d", s.ID, s.Count)
		}
	}
}

func TestDetectStagesTilesAndAlternates(t *testing.T) {
	spec := gamesim.CSGO()
	p := buildFor(t, spec, 2)
	tr, err := gamesim.Record(spec, 0, 321)
	if err != nil {
		t.Fatal(err)
	}
	det := p.DetectStages(tr.FrameVectors())
	if len(det) == 0 {
		t.Fatal("no stages detected")
	}
	pos := 0
	for i, d := range det {
		if d.Start != pos || d.End <= d.Start {
			t.Fatalf("stage %d does not tile: %+v at pos %d", i, d, pos)
		}
		pos = d.End
		if i > 0 && det[i-1].Loading == d.Loading {
			t.Errorf("stages %d and %d do not alternate loading/exec", i-1, i)
		}
	}
	if pos != len(tr.Frames) {
		t.Errorf("detection covers %d of %d frames", pos, len(tr.Frames))
	}
	if !det[0].Loading {
		t.Error("first stage should be loading")
	}
}

func TestDetectedStagesHaveKnownIDs(t *testing.T) {
	// Stages of a trace drawn from the same distribution as the corpus must
	// overwhelmingly match catalog signatures.
	spec := gamesim.DOTA2()
	p := buildFor(t, spec, 3)
	tr, err := gamesim.Record(spec, 1, 777)
	if err != nil {
		t.Fatal(err)
	}
	known, total := 0, 0
	for _, d := range p.DetectStages(tr.FrameVectors()) {
		if d.Loading {
			continue
		}
		total++
		if d.StageID >= 0 {
			known++
		}
	}
	if total == 0 {
		t.Fatal("no exec stages detected")
	}
	if frac := float64(known) / float64(total); frac < 0.8 {
		t.Errorf("known-signature fraction = %.2f, want >= 0.8", frac)
	}
}

func TestStageAccessors(t *testing.T) {
	p := buildFor(t, gamesim.Contra(), 2)
	if _, ok := p.Stage(-1); ok {
		t.Error("Stage(-1) ok")
	}
	if _, ok := p.Stage(len(p.Catalog)); ok {
		t.Error("Stage(out-of-range) ok")
	}
	s, ok := p.Stage(LoadingStageID)
	if !ok || !s.Loading {
		t.Error("loading stage missing")
	}
	if s.Count == 0 {
		t.Error("loading stage never observed")
	}
	if _, ok := p.StageByClusters([]int{99}); ok {
		t.Error("unknown cluster set matched")
	}
}

func TestPeakDemandDominatesCatalog(t *testing.T) {
	p := buildFor(t, gamesim.GenshinImpact(), 2)
	peak := p.PeakDemand()
	for _, s := range p.Catalog {
		if !s.Peak.Fits(peak) {
			t.Errorf("stage %d peak exceeds profile peak", s.ID)
		}
	}
	// Genshin's battle cluster sustains ~70 % GPU; allow noise.
	if peak[resources.GPU] < 60 || peak[resources.GPU] > 90 {
		t.Errorf("Genshin peak GPU = %v, want near 70", peak[resources.GPU])
	}
}

func TestCandidateStagesOrdering(t *testing.T) {
	p := buildFor(t, gamesim.DevilMayCry(), 3)
	for cl := range p.Clusters.Centroids {
		if cl == p.LoadingClusterID {
			continue
		}
		ids := p.CandidateStages(cl)
		for i := 1; i < len(ids); i++ {
			if p.Catalog[ids[i-1]].Count < p.Catalog[ids[i]].Count {
				t.Fatalf("candidates for cluster %d not sorted by count", cl)
			}
		}
		for _, id := range ids {
			if !inSet(p.Catalog[id].ClusterSet, cl) {
				t.Fatalf("candidate %d does not contain cluster %d", id, cl)
			}
		}
	}
}

func TestKey(t *testing.T) {
	if Key([]int{1, 2, 3}) != "1,2,3" || Key([]int{7}) != "7" || Key(nil) != "" {
		t.Error("Key formatting wrong")
	}
}

func TestElbowKSelection(t *testing.T) {
	// With K unset, the elbow criterion should land near the game's true
	// cluster count.
	spec := gamesim.Contra()
	traces, err := gamesim.RecordCorpus(spec, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(traces, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Clusters.K()
	if k < 2 || k > 3 {
		t.Errorf("elbow chose K = %d for Contra, want 2 (±1)", k)
	}
}

// tieProfile is a hand-built profile over five clusters (0 is loading) whose
// catalog holds one single-cluster stage per execution cluster, stage ID =
// cluster ID.
func tieProfile() *Profile {
	p := &Profile{
		Clusters: &cluster.Result{Centroids: []resources.Vector{
			resources.New(30, 5, 5, 10),
			resources.New(20, 40, 10, 10),
			resources.New(40, 60, 20, 20),
			resources.New(60, 70, 30, 30),
			resources.New(80, 90, 40, 40),
		}},
		LoadingClusterID: 0,
		Catalog:          []StageSig{{ID: LoadingStageID, ClusterSet: []int{0}, Loading: true}},
		sigIndex:         map[string]int{"loading": LoadingStageID},
		minShare:         0.34,
	}
	for c := 1; c < 5; c++ {
		p.Catalog = append(p.Catalog, StageSig{ID: c, ClusterSet: []int{c}})
		p.sigIndex[Key([]int{c})] = c
	}
	p.finish()
	return p
}

func TestSignatureTieIsDeterministic(t *testing.T) {
	// A one-frame dip between two execution runs merges them into one
	// nine-frame stage whose four execution clusters hold two frames each:
	// all below the 34 % share, so the signature falls back to the most
	// frequent cluster. Four clusters tie; the lowest ID must win every time.
	p := tieProfile()
	var frames []resources.Vector
	for _, c := range []int{0, 0, 1, 1, 2, 2, 0, 3, 3, 4, 4, 0, 0} {
		frames = append(frames, p.Clusters.Centroids[c])
	}
	for call := 0; call < 200; call++ {
		det := p.DetectStages(frames)
		if len(det) != 3 || det[1].Loading || det[1].Frames() != 9 {
			t.Fatalf("detection = %+v, want loading, one 9-frame stage, loading", det)
		}
		if det[1].StageID != 1 {
			t.Fatalf("call %d: tied signature resolved to stage %d, want 1 (lowest cluster ID)", call, det[1].StageID)
		}
	}
}
