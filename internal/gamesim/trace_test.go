package gamesim

import (
	"reflect"
	"testing"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

func TestRecordProducesConsistentTrace(t *testing.T) {
	tr, err := Record(GenshinImpact(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Seconds) == 0 || len(tr.Frames) == 0 || len(tr.Visits) == 0 {
		t.Fatal("empty trace")
	}
	if tr.Duration != simclock.Seconds(len(tr.Seconds)) {
		t.Errorf("duration = %v, want %d seconds", tr.Duration, len(tr.Seconds))
	}
	wantFrames := int((tr.Duration + simclock.FrameLen - 1) / simclock.FrameLen)
	if len(tr.Frames) != wantFrames {
		t.Errorf("frames = %d, want %d", len(tr.Frames), wantFrames)
	}
	// Visits must tile the frame range exactly.
	pos := 0
	for _, v := range tr.Visits {
		if v.StartFrame != pos || v.EndFrame <= v.StartFrame {
			t.Fatalf("visit %+v does not tile at %d", v, pos)
		}
		pos = v.EndFrame
	}
	if pos != len(tr.Frames) {
		t.Errorf("visits cover %d frames of %d", pos, len(tr.Frames))
	}
}

func TestTraceAlternatesLoadingAndExec(t *testing.T) {
	tr, err := Record(Contra(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// First visit must be the initial loading.
	if !tr.Visits[0].Loading {
		t.Error("trace does not start with loading")
	}
	for i := 1; i < len(tr.Visits); i++ {
		if tr.Visits[i].Loading == tr.Visits[i-1].Loading {
			t.Errorf("visits %d and %d have the same loading flag", i-1, i)
		}
	}
	// Contra script 3 runs three levels: 3 exec visits.
	if got := len(tr.ExecVisits()); got != 3 {
		t.Errorf("exec visits = %d, want 3", got)
	}
}

func TestTraceFrameVectors(t *testing.T) {
	tr, err := Record(Contra(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs := tr.FrameVectors()
	if len(vecs) != len(tr.Frames) {
		t.Fatal("FrameVectors length mismatch")
	}
	for i, v := range vecs {
		if v != tr.Frames[i].Demand {
			t.Fatal("FrameVectors content mismatch")
		}
	}
}

func TestLoadingFramesLookLikeLoading(t *testing.T) {
	tr, err := Record(DevilMayCry(), 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Boundary frames mix loading and execution seconds, so check only
	// interior loading frames (both neighbors also loading).
	for i := 1; i < len(tr.Frames)-1; i++ {
		f := tr.Frames[i]
		if f.Loading && tr.Frames[i-1].Loading && tr.Frames[i+1].Loading &&
			f.Demand[resources.GPU] > 20 {
			t.Errorf("loading frame %d has GPU %v", f.Frame, f.Demand[resources.GPU])
		}
	}
}

func TestRecordDeterministic(t *testing.T) {
	a, err := Record(DOTA2(), 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(DOTA2(), 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i].Demand != b.Frames[i].Demand {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestRecordCorpus(t *testing.T) {
	g := Contra()
	corpus, err := RecordCorpus(g, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != len(g.Scripts)*2 {
		t.Fatalf("corpus size = %d, want %d", len(corpus), len(g.Scripts)*2)
	}
	scriptSeen := map[int]int{}
	for _, tr := range corpus {
		scriptSeen[tr.Script]++
		if tr.Game != g.Name {
			t.Errorf("trace game = %q", tr.Game)
		}
	}
	for si := range g.Scripts {
		if scriptSeen[si] != 2 {
			t.Errorf("script %d appears %d times, want 2", si, scriptSeen[si])
		}
	}
}

func TestRecordBadScript(t *testing.T) {
	if _, err := Record(Contra(), 99, 1); err == nil {
		t.Error("bad script index did not error")
	}
}

// aggregateSeconds is the frame aggregation over a kept per-second record:
// each 5-second window's mean demand and its majority stage, cluster and
// loading flag (ties to the smaller value).
func aggregateSeconds(secs []SecondSample) []FrameSample {
	var frames []FrameSample
	for start := 0; start < len(secs); start += int(simclock.FrameLen) {
		end := min(start+int(simclock.FrameLen), len(secs))
		var sum resources.Vector
		types, clusters := map[int]int{}, map[int]int{}
		loading := 0
		for _, s := range secs[start:end] {
			sum = sum.Add(s.Demand)
			types[s.StageType]++
			clusters[s.Cluster]++
			if s.Loading {
				loading++
			}
		}
		n := end - start
		frames = append(frames, FrameSample{
			Frame: len(frames), Demand: sum.Scale(1 / float64(n)),
			StageType: mapMajority(types), Cluster: mapMajority(clusters), Loading: loading*2 > n,
		})
	}
	return frames
}

func mapMajority(counts map[int]int) int {
	best, bestN := 0, -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}

func TestFramesFoldSeconds(t *testing.T) {
	// Frames folded while recording equal the aggregation of the kept
	// seconds, and a corpus trace of the same session keeps the same frames,
	// visits and duration without its seconds.
	for _, spec := range AllGames() {
		tr, err := RecordPlayer(spec, 0, 21, 34)
		if err != nil {
			t.Fatal(err)
		}
		if want := aggregateSeconds(tr.Seconds); !reflect.DeepEqual(tr.Frames, want) {
			t.Fatalf("%s: folded frames differ from the aggregated seconds", spec.Name)
		}
		folded, err := record(spec, 0, 21, 34, false)
		if err != nil {
			t.Fatal(err)
		}
		if folded.Seconds != nil {
			t.Errorf("%s: corpus trace kept %d seconds", spec.Name, len(folded.Seconds))
		}
		if folded.Duration != tr.Duration || !reflect.DeepEqual(folded.Frames, tr.Frames) || !reflect.DeepEqual(folded.Visits, tr.Visits) {
			t.Errorf("%s: corpus trace differs from the recorded one", spec.Name)
		}
	}
	corpus, err := RecordPlayerCorpus(Contra(), CorpusConfig{Players: 2, SessionsPerPlayer: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range corpus {
		if tr.Seconds != nil || tr.Duration == 0 {
			t.Errorf("corpus trace: %d seconds kept, duration %v", len(tr.Seconds), tr.Duration)
		}
	}
}
