package profiler

import (
	"encoding/json"
	"strings"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

func TestDetectorTracksGroundTruthPhases(t *testing.T) {
	spec := gamesim.CSGO()
	p := buildFor(t, spec, 2)
	tr, err := gamesim.Record(spec, 0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(p)
	var agree, total int
	var sawLoadEnter, sawStageEnter bool
	for i, f := range tr.Frames {
		ev := d.Observe(f.Demand)
		switch ev.Kind {
		case EventLoadingEntered:
			sawLoadEnter = true
		case EventStageEntered:
			sawStageEnter = true
		}
		// Compare believed phase with ground truth away from boundaries.
		if i > 0 && tr.Frames[i-1].Loading != f.Loading {
			continue
		}
		_, loading := d.Current()
		total++
		if loading == f.Loading {
			agree++
		}
	}
	if !sawLoadEnter || !sawStageEnter {
		t.Error("detector never saw a stage boundary")
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("phase agreement = %.3f, want >= 0.9", frac)
	}
}

func TestDetectorStartsInLoading(t *testing.T) {
	p := buildFor(t, gamesim.Contra(), 2)
	d := NewDetector(p)
	id, loading := d.Current()
	if !loading || id != LoadingStageID {
		t.Errorf("initial state = (%d, %v)", id, loading)
	}
}

func TestDetectorEventSequence(t *testing.T) {
	p := buildFor(t, gamesim.Contra(), 2)
	d := NewDetector(p)
	load := p.Clusters.Centroids[p.LoadingClusterID]
	var exec resources.Vector
	for i, c := range p.Clusters.Centroids {
		if i != p.LoadingClusterID {
			exec = c
			break
		}
	}
	if ev := d.Observe(load); ev.Kind != EventSame {
		t.Errorf("loading frame while loading: %v", ev.Kind)
	}
	ev := d.Observe(exec)
	if ev.Kind != EventStageEntered {
		t.Errorf("first exec frame: %v", ev.Kind)
	}
	if ev.StageID < 0 {
		t.Error("entered stage not identified")
	}
	if ev2 := d.Observe(exec); ev2.Kind != EventSame || ev2.StageID != ev.StageID {
		t.Errorf("repeat exec frame: %v stage %d", ev2.Kind, ev2.StageID)
	}
	if ev3 := d.Observe(load); ev3.Kind != EventLoadingEntered {
		t.Errorf("loading after exec: %v", ev3.Kind)
	}
}

func TestDetectorRefinesMultiClusterStage(t *testing.T) {
	// DMC's l3-elites stage mixes brawl and boss clusters; feeding one then
	// the other must either refine to the multi-cluster signature or flag a
	// mismatch with a candidate — never silently stay wrong.
	spec := gamesim.DevilMayCry()
	p := buildFor(t, spec, 3)

	// Find a catalog stage with >= 2 clusters.
	var multi *StageSig
	for i := range p.Catalog {
		if !p.Catalog[i].Loading && len(p.Catalog[i].ClusterSet) >= 2 {
			multi = &p.Catalog[i]
			break
		}
	}
	if multi == nil {
		t.Skip("no multi-cluster stage discovered in this corpus")
	}
	d := NewDetector(p)
	first := p.Clusters.Centroids[multi.ClusterSet[0]]
	second := p.Clusters.Centroids[multi.ClusterSet[1]]
	d.Observe(first) // leaves loading
	ev := d.Observe(second)
	switch ev.Kind {
	case EventSame, EventRefined:
		// Acceptable: already identified as (or refined into) the
		// multi-cluster stage.
	case EventMismatch:
		if ev.Candidate < 0 {
			t.Error("mismatch with no candidate for a cataloged cluster")
		}
	default:
		t.Errorf("unexpected event %v", ev.Kind)
	}
}

func TestDetectorForceStage(t *testing.T) {
	p := buildFor(t, gamesim.CSGO(), 2)
	// Force into some execution stage.
	var execID int
	for _, s := range p.Catalog {
		if !s.Loading {
			execID = s.ID
			break
		}
	}
	d := NewDetector(p)
	d.ForceStage(execID)
	id, loading := d.Current()
	if id != execID || loading {
		t.Errorf("after ForceStage: (%d, %v)", id, loading)
	}
	d.ForceStage(LoadingStageID)
	if _, loading := d.Current(); !loading {
		t.Error("ForceStage(loading) did not set loading")
	}
}

func TestDetectorMismatchOnForeignCluster(t *testing.T) {
	// Profile Contra, then feed a frame far outside any Contra cluster's
	// neighborhood after pinning the detector to the level stage: the
	// nearest cluster will be the level cluster or loading; craft a vector
	// near the level cluster but force the detector into a fake sig first.
	p := buildFor(t, gamesim.Contra(), 2)
	d := NewDetector(p)
	// Enter the level stage.
	var exec resources.Vector
	var execCl int
	for i, c := range p.Clusters.Centroids {
		if i != p.LoadingClusterID {
			exec, execCl = c, i
			break
		}
	}
	d.Observe(exec)
	// Pretend the detector believes a stage whose set excludes execCl.
	d.curSet = 0
	d.curStage = -1
	ev := d.Observe(exec)
	if ev.Kind == EventSame {
		t.Errorf("foreign cluster accepted as same stage")
	}
	_ = execCl
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EventSame: "same", EventLoadingEntered: "loading-entered",
		EventStageEntered: "stage-entered", EventRefined: "refined",
		EventMismatch: "mismatch",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if EventKind(99).String() != "event(99)" {
		t.Error("unknown kind string")
	}
}

func TestDetectorInvariants(t *testing.T) {
	// Over a long random-feed run the detector must always hold a coherent
	// belief: loading iff stage 0, and any non-negative stage ID within the
	// catalog.
	spec := gamesim.DevilMayCry()
	p := buildFor(t, spec, 2)
	d := NewDetector(p)
	tr, err := gamesim.Record(spec, 2, 31337)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Frames {
		ev := d.Observe(f.Demand)
		id, loading := d.Current()
		if loading != (id == LoadingStageID) {
			t.Fatalf("incoherent belief: id=%d loading=%v", id, loading)
		}
		if id >= p.NumStageTypes() {
			t.Fatalf("stage id %d beyond catalog %d", id, p.NumStageTypes())
		}
		if ev.Kind == EventMismatch && ev.Candidate >= p.NumStageTypes() {
			t.Fatalf("candidate %d beyond catalog", ev.Candidate)
		}
	}
}

// TestEntryStageTable pins the precomputed entry table to the lookup it
// replaced — the exact single-cluster signature, else the most observed
// containing stage, else -1 — for built and for reloaded profiles, and Build's
// refusal of more clusters than the detector's mask holds.
func TestEntryStageTable(t *testing.T) {
	for _, spec := range []*gamesim.GameSpec{gamesim.Contra(), gamesim.DevilMayCry(), gamesim.GenshinImpact()} {
		built := buildFor(t, spec, 2)
		blob, err := json.Marshal(built)
		if err != nil {
			t.Fatal(err)
		}
		var loaded Profile
		if err := json.Unmarshal(blob, &loaded); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Profile{built, &loaded} {
			if len(p.entry) != len(p.Clusters.Centroids) {
				t.Fatalf("%s: %d entries for %d clusters", spec.Name, len(p.entry), len(p.Clusters.Centroids))
			}
			for cl, got := range p.entry {
				want := -1
				if id, ok := p.StageByClusters([]int{cl}); ok {
					want = id
				} else if ids := p.CandidateStages(cl); len(ids) > 0 {
					want = ids[0]
				}
				if got != want {
					t.Errorf("%s cluster %d: entry stage %d, want %d", spec.Name, cl, got, want)
				}
			}
		}
	}
	traces, err := gamesim.RecordCorpus(gamesim.Contra(), 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(traces, Config{K: MaxClusters + 1, Seed: 7}); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("Build with K = %d: err = %v, want one naming the limit of 64", MaxClusters+1, err)
	}
}
