package profiler

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// legacyDetectStages is the original detection, kept as the oracle of the
// one-pass one: it classifies frames as it segments, sorts each column for
// the sustained peak, and merges dips by rescanning the segment list after
// every merge, recomputing the merged stage from its frames. Its degenerate
// signature takes the lowest cluster ID among ties, the rule both share.
func legacyDetectStages(p *Profile, frames []resources.Vector) []Detected {
	var out []Detected
	for i := 0; i < len(frames); {
		loading := p.IsLoadingFrame(frames[i])
		j := i
		for j < len(frames) && p.IsLoadingFrame(frames[j]) == loading {
			j++
		}
		out = append(out, legacyStage(p, frames, i, j, loading))
		i = j
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i+1 < len(out); i++ {
			mid, l, r := out[i], out[i-1], out[i+1]
			if !mid.Loading || mid.Frames() > 1 || l.Loading || r.Loading {
				continue
			}
			merged := legacyStage(p, frames, l.Start, r.End, false)
			out = append(out[:i-1], append([]Detected{merged}, out[i+2:]...)...)
			changed = true
			break
		}
	}
	return out
}

func legacyStage(p *Profile, frames []resources.Vector, start, end int, loading bool) Detected {
	seg := frames[start:end]
	d := Detected{Start: start, End: end, Loading: loading, Mean: resources.Mean(seg), Peak: sortedPeak(seg)}
	if loading {
		return d
	}
	counts := map[int]int{}
	for _, f := range seg {
		counts[p.ClassifyFrame(f)]++
	}
	minCount := int(p.minShare * float64(len(seg)))
	if minCount < 1 {
		minCount = 1
	}
	var set []int
	for c, n := range counts {
		if c != p.LoadingClusterID && n >= minCount {
			set = append(set, c)
		}
	}
	if len(set) == 0 {
		best, bestN := -1, 0
		for c, n := range counts {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		set = append(set, best)
	}
	sort.Ints(set)
	d.StageID = -1
	if id, ok := p.sigIndex[Key(set)]; ok {
		d.StageID = id
	}
	return d
}

// sortedPeak is the sustained peak by full sort, the oracle of selection.
func sortedPeak(seg []resources.Vector) resources.Vector {
	var out resources.Vector
	vals := make([]float64, len(seg))
	for d := range out {
		for i, f := range seg {
			vals[i] = f[d]
		}
		sort.Float64s(vals)
		idx := (len(vals)*9 + 9) / 10
		if idx > 0 {
			idx--
		}
		out[d] = vals[idx]
	}
	return out
}

func TestSustainedPeakMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 20; trial++ {
			seg := make([]resources.Vector, n)
			for i := range seg {
				for d := range seg[i] {
					if r.Intn(2) == 0 {
						seg[i][d] = float64(r.Intn(4)) // duplicates
					} else {
						seg[i][d] = r.Float64() * 100
					}
				}
			}
			got, want := sustainedPeak(seg), sortedPeak(seg)
			for d := range got {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("n=%d dim %d: selection %v, sort %v", n, d, got[d], want[d])
				}
			}
		}
	}
}

func TestDetectStagesMatchesRescan(t *testing.T) {
	// Random cluster sequences over a five-cluster profile, biased toward
	// one-frame loading dips and short runs so merges chain and degenerate
	// signatures occur. Frames sit near their centroid, so each one's label
	// is its drawn cluster.
	p := tieProfile()
	r := rand.New(rand.NewSource(17))
	merged := 0
	for trial := 0; trial < 500; trial++ {
		var frames []resources.Vector
		for n := 1 + r.Intn(40); len(frames) < n; {
			c := r.Intn(len(p.Clusters.Centroids))
			for run := 1 + r.Intn(3); run > 0; run-- {
				f := p.Clusters.Centroids[c]
				f[resources.CPU] += r.Float64()
				frames = append(frames, f)
			}
		}
		got, want := p.DetectStages(frames), legacyDetectStages(p, frames)
		for _, d := range got {
			if !d.Loading {
				for _, f := range frames[d.Start:d.End] {
					if p.IsLoadingFrame(f) {
						merged++
						break
					}
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d:\n got %+v\nwant %+v", trial, got, want)
		}
	}
	if merged == 0 {
		t.Error("no trial merged a dip")
	}
}

func TestBuildStagesMatchesDetectStages(t *testing.T) {
	// BuildStages' corpus detection is the final profile's own detection
	// of each trace, and the legacy oracle's.
	for _, spec := range []*gamesim.GameSpec{gamesim.DOTA2(), gamesim.DevilMayCry()} {
		traces, err := gamesim.RecordCorpus(spec, 2, 500)
		if err != nil {
			t.Fatal(err)
		}
		p, stages, err := BuildStages(traces, Config{K: len(spec.Clusters), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(stages) != len(traces) {
			t.Fatalf("%s: %d detections for %d traces", spec.Name, len(stages), len(traces))
		}
		for i, tr := range traces {
			frames := tr.FrameVectors()
			if want := p.DetectStages(frames); !reflect.DeepEqual(stages[i], want) {
				t.Fatalf("%s trace %d: BuildStages %+v, DetectStages %+v", spec.Name, i, stages[i], want)
			}
			if want := legacyDetectStages(p, frames); !reflect.DeepEqual(stages[i], want) {
				t.Fatalf("%s trace %d: BuildStages %+v, oracle %+v", spec.Name, i, stages[i], want)
			}
		}
	}
}
