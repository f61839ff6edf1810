package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cocg/internal/resources"
)

// blob generates n points around center with the given spread.
func blob(r *rand.Rand, center resources.Vector, spread float64, n int) []resources.Vector {
	out := make([]resources.Vector, n)
	for i := range out {
		var v resources.Vector
		for d := range v {
			v[d] = center[d] + r.NormFloat64()*spread
		}
		out[i] = v.Clamp(0, 100)
	}
	return out
}

func threeBlobs(seed int64) []resources.Vector {
	r := rand.New(rand.NewSource(seed))
	var pts []resources.Vector
	pts = append(pts, blob(r, resources.New(10, 5, 5, 20), 1.5, 40)...)
	pts = append(pts, blob(r, resources.New(50, 60, 40, 50), 1.5, 40)...)
	pts = append(pts, blob(r, resources.New(90, 90, 80, 80), 1.5, 40)...)
	return pts
}

func TestKMeansRecoversBlobs(t *testing.T) {
	pts := threeBlobs(1)
	res, err := KMeans(pts, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 3 {
		t.Fatalf("K = %d", res.K())
	}
	sizes := res.Sizes()
	for c, s := range sizes {
		if s != 40 {
			t.Errorf("cluster %d size = %d, want 40 (sizes %v)", c, s, sizes)
		}
	}
	// Centroids are sorted by dominant component: loading-like cluster first.
	if !(res.Centroids[0].Dominant() < res.Centroids[1].Dominant()) ||
		!(res.Centroids[1].Dominant() < res.Centroids[2].Dominant()) {
		t.Errorf("centroids not sorted: %v", res.Centroids)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	pts := threeBlobs(2)
	a, err := KMeans(pts, Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.SSE != b.SSE {
		t.Errorf("same seed, different SSE: %v vs %v", a.SSE, b.SSE)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("same seed, different assignment at %d", i)
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, Config{K: 2}); err != ErrNoPoints {
		t.Errorf("empty points err = %v", err)
	}
	if _, err := KMeans(threeBlobs(3), Config{K: 0}); err == nil {
		t.Error("K=0 did not error")
	}
}

func TestKMeansKLargerThanPoints(t *testing.T) {
	pts := []resources.Vector{resources.New(1, 1, 1, 1), resources.New(9, 9, 9, 9)}
	res, err := KMeans(pts, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 2 {
		t.Errorf("K clamped to %d, want 2", res.K())
	}
	if res.SSE != 0 {
		t.Errorf("SSE = %v, want 0 when every point has its own centroid", res.SSE)
	}
}

func TestNearest(t *testing.T) {
	pts := threeBlobs(4)
	res, err := KMeans(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if got := res.Nearest(p); got != res.Assign[i] {
			t.Fatalf("Nearest(point %d) = %d, assign = %d", i, got, res.Assign[i])
		}
	}
}

func TestSweepMonotonicSSE(t *testing.T) {
	pts := threeBlobs(5)
	curve, err := Sweep(pts, 8, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 8 {
		t.Fatalf("curve len = %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		// With restarts the curve should be (weakly) decreasing; allow tiny
		// numerical slack.
		if curve[i].SSE > curve[i-1].SSE*1.05+1e-9 {
			t.Errorf("SSE increased at K=%d: %v -> %v", curve[i].K, curve[i-1].SSE, curve[i].SSE)
		}
	}
}

func TestElbowFindsTrueK(t *testing.T) {
	pts := threeBlobs(6)
	curve, err := Sweep(pts, 8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k := Elbow(curve, 0.05); k != 3 {
		t.Errorf("Elbow = %d, want 3", k)
	}
}

func TestElbowEdgeCases(t *testing.T) {
	if Elbow(nil, 0.1) != 0 {
		t.Error("Elbow(nil) != 0")
	}
	if Elbow([]SweepPoint{{K: 1, SSE: 5}}, 0.1) != 1 {
		t.Error("Elbow single point != its K")
	}
	flat := []SweepPoint{{1, 5}, {2, 5}, {3, 5}}
	if Elbow(flat, 0.1) != 1 {
		t.Error("flat curve elbow != first K")
	}
}

func TestGraphPartitionSeparatesBlobs(t *testing.T) {
	pts := threeBlobs(7)
	res, err := GraphPartition(pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 3 {
		t.Errorf("GraphPartition K = %d, want 3", res.K())
	}
}

func TestGraphPartitionEmpty(t *testing.T) {
	if _, err := GraphPartition(nil); err != ErrNoPoints {
		t.Errorf("err = %v", err)
	}
}

func TestGraphPartitionSinglePoint(t *testing.T) {
	res, err := GraphPartition([]resources.Vector{resources.New(1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 1 || res.SSE != 0 {
		t.Errorf("single point: K=%d SSE=%v", res.K(), res.SSE)
	}
}

func TestPropertyAssignmentsInRange(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 1 + int(kRaw%6)
		pts := threeBlobs(seed)
		res, err := KMeans(pts, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= res.K() {
				return false
			}
		}
		return len(res.Assign) == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertySSENonNegativeAndConsistent(t *testing.T) {
	f := func(seed int64) bool {
		pts := threeBlobs(seed)
		res, err := KMeans(pts, Config{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		if res.SSE < 0 {
			return false
		}
		// Recompute SSE from assignments and compare.
		var s float64
		for i, p := range pts {
			s += p.Dist2(res.Centroids[res.Assign[i]])
		}
		return math.Abs(s-res.SSE) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEachPointNearestOwnCentroid(t *testing.T) {
	// After convergence every point must be assigned to its nearest centroid.
	f := func(seed int64) bool {
		pts := threeBlobs(seed)
		res, err := KMeans(pts, Config{K: 4, Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range pts {
			if res.Nearest(p) != res.Assign[i] {
				// Ties can break either way; accept equal distances.
				if math.Abs(p.Dist2(res.Centroids[res.Nearest(p)])-p.Dist2(res.Centroids[res.Assign[i]])) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSweepWorkerCountInvariant(t *testing.T) {
	pts := threeBlobs(9)
	ref, err := Sweep(pts, 6, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(pts, 6, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("sweep point %d: %v != %v", i, got[i], ref[i])
		}
	}
}
