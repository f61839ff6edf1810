package coordinator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"cocg/internal/gamesim"
)

// randomViews builds a seeded pseudo-random fleet snapshot: mixed health,
// latencies, and headrooms, with a sprinkle of exact score ties.
func randomViews(seed int64, n int) []ClusterView {
	rng := rand.New(rand.NewSource(seed))
	views := make([]ClusterView, n)
	for i := range views {
		views[i] = ClusterView{
			ID:           i,
			Healthy:      rng.Intn(8) != 0,
			LatencyMS:    float64(rng.Intn(40)) * 5, // coarse grid → occasional ties
			Headroom:     float64(rng.Intn(20)) / 20,
			LiveSessions: rng.Intn(500),
		}
	}
	return views
}

// TestRankBreaksTiesByLowestID pins the tie-break rule: identical clusters
// rank in ID order, so a fleet of clones routes predictably.
func TestRankBreaksTiesByLowestID(t *testing.T) {
	views := make([]ClusterView, 9)
	for i := range views {
		views[i] = ClusterView{ID: i, Healthy: true, LatencyMS: 25, Headroom: 0.5}
	}
	order := Rank(views, nil, RouteWeights{})
	for i, id := range order {
		if id != i {
			t.Fatalf("tied clusters ranked %v, want ascending IDs", order)
		}
	}
}

// TestRankExcludesUnhealthy verifies down clusters never appear in a routing
// order, even when their score would win.
func TestRankExcludesUnhealthy(t *testing.T) {
	views := []ClusterView{
		{ID: 0, Healthy: false, Headroom: 1.0}, // best score, but down
		{ID: 1, Healthy: true, Headroom: 0.2, LatencyMS: 90},
		{ID: 2, Healthy: true, Headroom: 0.9, LatencyMS: 10},
	}
	order := Rank(views, nil, RouteWeights{})
	want := []int{2, 1}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	views[1].Healthy, views[2].Healthy = false, false
	if order := Rank(views, nil, RouteWeights{}); len(order) != 0 {
		t.Fatalf("all-down fleet still produced an order: %v", order)
	}
}

// TestRankPrefersHeadroomThenLatency sanity-checks the score's two pulls: an
// idle far cluster beats a saturated near one, and at equal load the nearer
// cluster wins.
func TestRankPrefersHeadroomThenLatency(t *testing.T) {
	views := []ClusterView{
		{ID: 0, Healthy: true, Headroom: 0.05, LatencyMS: 5},  // near but saturated
		{ID: 1, Healthy: true, Headroom: 0.95, LatencyMS: 80}, // far but idle
	}
	if order := Rank(views, nil, RouteWeights{}); order[0] != 1 {
		t.Errorf("saturated near cluster beat idle far one: %v", order)
	}
	equal := []ClusterView{
		{ID: 0, Healthy: true, Headroom: 0.5, LatencyMS: 80},
		{ID: 1, Healthy: true, Headroom: 0.5, LatencyMS: 5},
	}
	if order := Rank(equal, nil, RouteWeights{}); order[0] != 1 {
		t.Errorf("at equal load the farther cluster won: %v", order)
	}
}

// TestLatencySensitivity pins the per-game weighting: fast-paced and
// competitive categories pay more per millisecond, web games less, and the
// result stays inside [0.25, 1.5] with unknown games at exactly 1.
func TestLatencySensitivity(t *testing.T) {
	if got := LatencySensitivity(nil); got != 1 {
		t.Errorf("nil spec sensitivity %.3f, want 1", got)
	}
	for _, spec := range gamesim.AllGames() {
		s := LatencySensitivity(spec)
		if s < 0.25 || s > 1.5 {
			t.Errorf("%s: sensitivity %.3f out of [0.25, 1.5]", spec.Name, s)
		}
	}
}

// TestRankIntoSteadyStateAllocationFree keeps the hot routing path off the
// allocator: ranking into reused storage must not allocate once warmed up.
func TestRankIntoSteadyStateAllocationFree(t *testing.T) {
	views := randomViews(7, 64)
	spec := gamesim.Contra()
	var order []int
	var scores []float64
	RankInto(views, spec, RouteWeights{}, 1, &order, &scores) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		RankInto(views, spec, RouteWeights{}, 1, &order, &scores)
	})
	if allocs > 0 {
		t.Errorf("RankInto allocates %.1f times per call in steady state", allocs)
	}
}

// rankGolden is the sha256 of every order TestRankGolden ranks, each written
// as its IDs in little-endian int64 after its length.
const rankGolden = "1f70c89f22f80f4ce7ce9e68e1bb87fc52269acf34de4a70b82d436051b5c08c"

// TestRankGolden pins RankInto's orders over seeded fleets of every size
// around the insertion/heap boundary, so a change of sorting algorithm must
// reproduce the strict comparator's sequence exactly.
func TestRankGolden(t *testing.T) {
	h := sha256.New()
	var order []int
	var scores []float64
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{1, 7, 9, 16, 17, 64, 200} {
			views := randomViews(seed, n)
			for _, spec := range []*gamesim.GameSpec{nil, gamesim.Contra(), gamesim.GenshinImpact()} {
				RankInto(views, spec, RouteWeights{}, 1, &order, &scores)
				binary.Write(h, binary.LittleEndian, int64(len(order)))
				for _, id := range order {
					binary.Write(h, binary.LittleEndian, int64(id))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rankGolden {
		t.Errorf("rank orders hash to %s, want %s", got, rankGolden)
	}
}
