package tracefile

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/profiler"
)

func TestRoundTrip(t *testing.T) {
	tr, err := gamesim.Record(gamesim.GenshinImpact(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(tr, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Game != tr.Game || back.Script != tr.Script || back.Habit != tr.Habit {
		t.Error("identity changed")
	}
	if len(back.Frames) != len(tr.Frames) {
		t.Fatalf("frames %d vs %d", len(back.Frames), len(tr.Frames))
	}
	for i := range back.Frames {
		if back.Frames[i].Demand != tr.Frames[i].Demand ||
			back.Frames[i].StageType != tr.Frames[i].StageType ||
			back.Frames[i].Loading != tr.Frames[i].Loading {
			t.Fatalf("frame %d changed", i)
		}
	}
	if !reflect.DeepEqual(back.Visits, tr.Visits) {
		t.Errorf("visits %v vs %v", back.Visits, tr.Visits)
	}
	if back.Duration != 0 || back.Seconds != nil {
		t.Errorf("loaded trace claims %v of %d seconds; frames alone carry neither", back.Duration, len(back.Seconds))
	}
}

func TestLoadedTracesBuildProfiles(t *testing.T) {
	// The full cross-process story: record, save to disk, load elsewhere,
	// profile.
	spec := gamesim.Contra()
	corpus, err := gamesim.RecordCorpus(spec, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := SaveAll(corpus, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(corpus) {
		t.Fatalf("paths = %d", len(paths))
	}
	loaded := make([]*gamesim.Trace, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		loaded[i], err = Read(f)
		_ = f.Close() // read-only file; a Read error dominates
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	p, err := profiler.Build(loaded, profiler.Config{K: len(spec.Clusters), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStageTypes() != 2 {
		t.Errorf("catalog from loaded traces = %d types", p.NumStageTypes())
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "not json\n",
		"wrong format": `{"format":"other","game":"X"}` + "\n",
		"no frames":    `{"format":"cocg-trace-v1","game":"X"}` + "\n",
		"bad frame":    `{"format":"cocg-trace-v1","game":"X"}` + "\nnope\n",
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSafeNames(t *testing.T) {
	if safe("Genshin Impact") != "Genshin_Impact" {
		t.Errorf("safe = %q", safe("Genshin Impact"))
	}
}
