package scheduler

import (
	"math"
	"math/rand"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

// addRuns is the dense accumulation mergeRuns replaced, kept as its
// reference: it adds one session's run-length timeline onto a per-frame total
// in place, frame t receiving exactly the addition a per-frame expansion
// would give it.
func addRuns(total []resources.Vector, runs []predictor.Segment) {
	for i := range runs {
		span, d := total[:runs[i].Frames], &runs[i].Demand
		for t := range span {
			v := &span[t]
			for k := range v {
				v[k] += d[k]
			}
		}
		total = total[len(span):]
	}
}

// randomSessions draws k sessions' run lists over h frames: ragged stage runs,
// runs cut on a shared five-frame grid (so several sessions' runs end on the
// same frame), and single flat runs like a foreign controller's. Demands mix
// exact zeros with values whose sums round.
func randomSessions(rng *rand.Rand, k, h int) (runs []predictor.Segment, runEnd []int) {
	demand := func() resources.Vector {
		var v resources.Vector
		for d := range v {
			if rng.Intn(6) > 0 {
				v[d] = rng.Float64() * 100 / 3
			}
		}
		return v
	}
	for s := 0; s < k; s++ {
		shape := rng.Intn(3)
		for left := h; left > 0; {
			n := left
			switch shape {
			case 0:
				n = 1 + rng.Intn(left)
			case 1:
				if n = 5 * (1 + rng.Intn(4)); n > left {
					n = left
				}
			}
			runs = append(runs, predictor.Segment{Frames: n, Demand: demand()})
			left -= n
		}
		runEnd = append(runEnd, len(runs))
	}
	return runs, runEnd
}

// checkMerge asserts mergeRuns' contract against the dense fold: the merged
// runs expand to it bit for bit, their lengths sum to the horizon with no
// empty run, and the peak is the dense total's.
func checkMerge(t *testing.T, runs []predictor.Segment, runEnd []int, h int) {
	t.Helper()
	dense := make([]resources.Vector, h)
	start := 0
	for _, end := range runEnd {
		addRuns(dense, runs[start:end])
		start = end
	}
	merged, peak := mergeRuns(nil, runs, runEnd, h, make([]runCursor, len(runEnd)))
	frame, covered := 0, 0
	for i, run := range merged {
		if run.Frames <= 0 {
			t.Fatalf("merged run %d has %d frames", i, run.Frames)
		}
		covered += run.Frames
		for n := 0; n < run.Frames && frame < h; n++ {
			for d := range run.Demand {
				if got, want := math.Float64bits(run.Demand[d]), math.Float64bits(dense[frame][d]); got != want {
					t.Fatalf("frame %d dim %d: merged %v != dense %v", frame, d, run.Demand[d], dense[frame][d])
				}
			}
			frame++
		}
	}
	if covered != h {
		t.Fatalf("merged runs cover %d frames, horizon %d", covered, h)
	}
	want := resources.PeakOf(dense)
	for d := range peak {
		if math.Float64bits(peak[d]) != math.Float64bits(want[d]) {
			t.Fatalf("peak %v != PeakOf(dense) %v", peak, want)
		}
	}
}

// TestMergeRunsMatchesDenseFold is the run-length total's property test: over
// random hosted sets — empty, single, eight sessions, horizon 1 — the merged
// timeline is the dense per-frame fold, bit for bit.
func TestMergeRunsMatchesDenseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, h := range []int{1, 2, 7, 120} {
		for _, k := range []int{0, 1, 2, 8} {
			for rep := 0; rep < 50; rep++ {
				runs, runEnd := randomSessions(rng, k, h)
				checkMerge(t, runs, runEnd, h)
			}
		}
	}
	// One foreign session: a single run of the whole horizon.
	flat := []predictor.Segment{{Frames: 120, Demand: resources.Uniform(12.5)}}
	checkMerge(t, flat, []int{1}, 120)
	merged, _ := mergeRuns(nil, flat, []int{1}, 120, make([]runCursor, 1))
	if len(merged) != 1 || merged[0] != flat[0] {
		t.Errorf("a single flat session merged to %v", merged)
	}
}

func FuzzMergeRuns(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(120))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(8), uint8(120))
	f.Add(int64(4), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, k, h uint8) {
		horizon := 1 + int(h)%120
		runs, runEnd := randomSessions(rand.New(rand.NewSource(seed)), int(k)%9, horizon)
		checkMerge(t, runs, runEnd, horizon)
	})
}

// TestCacheLookupIgnoresServerIDs covers the cache lookup where an ID could
// mislead it: two live servers sharing one Server.ID, then a server replaced
// in place by a new one with its predecessor's ID. The long-lived policy's
// verdicts — through Score and through the cluster's pick — and its fleet
// summary must equal a fresh policy's, which works through throwaway caches.
func TestCacheLookupIgnoresServerIDs(t *testing.T) {
	do, co := gamesim.DOTA2(), gamesim.Contra()
	specs := []*gamesim.GameSpec{do, co}
	bundles := []*predictor.Trained{bundleFor(t, do), bundleFor(t, co)}
	p := New(bundles, Config{})
	c := platform.NewCluster(4, p)
	c.Servers[1].ID = c.Servers[0].ID
	host := func(srv *platform.Server, spec *gamesim.GameSpec, seed int64) {
		t.Helper()
		sess, err := gamesim.NewSession(spec, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := p.NewController(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		srv.Add(spec, sess, ctl)
	}
	check := func(label string) {
		t.Helper()
		for round := 0; round < 2; round++ { // cold, then memoized
			for i, spec := range specs {
				fresh := New(bundles, Config{})
				for _, srv := range c.Servers {
					var ws float64
					var wok bool
					aside(c.Servers, func() { ws, wok = fresh.Score(srv, spec) })
					if gs, gok := p.Score(srv, spec); gs != ws || gok != wok {
						t.Fatalf("%s: Score of server %p %s: (%v, %v), fresh policy (%v, %v)", label, srv, spec.Name, gs, gok, ws, wok)
					}
				}
				a := platform.Arrival{Spec: spec, Habit: int64(i)}
				got := c.PickServer(a)
				var want *platform.Server
				aside(c.Servers, func() {
					c.Policy = fresh
					want = c.PickServer(a)
					c.Policy = p
				})
				if got != want {
					t.Fatalf("%s: picked %p for %s, fresh policy %p", label, got, spec.Name, want)
				}
			}
		}
		var got, want platform.FleetLoad
		p.FleetLoadInto(c.Servers, &got)
		New(bundles, Config{}).FleetLoadFull(c.Servers, &want)
		requireBitIdentical(t, label, got, want)
	}

	host(c.Servers[0], do, 1)
	host(c.Servers[1], co, 2)
	host(c.Servers[1], do, 3)
	host(c.Servers[2], co, 4)
	for i := 0; i < 35; i++ {
		c.Tick()
	}
	check("shared ID")

	c.Servers[2] = platform.NewServer(c.Servers[2].ID, resources.FullServer, c.Clock)
	host(c.Servers[2], do, 5)
	check("replaced in place")
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	check("ticked after replace")
}
