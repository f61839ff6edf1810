package cluster

import (
	"math"
	"math/rand"
	"testing"

	"cocg/internal/parallel"
	"cocg/internal/resources"
)

// legacyKMeans is the plain Lloyd loop, kept as the oracle the bounded
// assignment step (lloyd) must reproduce bit for bit: every iteration scans
// every point against every centroid. It shares the k-means++ seeding, the
// chunk-order centroid merge and the SSE reduction with KMeans, so any
// difference is the assignment step's.
func legacyKMeans(points []resources.Vector, cfg Config) *Result {
	c := cfg.withDefaults()
	k := c.K
	if k > len(points) {
		k = len(points)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	s := newKMScratch(len(points), k)
	best := &Result{}
	have := false
	for r := 0; r < c.Restarts; r++ {
		sse, iterations := legacyLloyd(points, k, c.MaxIter, rng, s)
		if !have || sse < best.SSE {
			have = true
			best.SSE = sse
			best.Iterations = iterations
			copy(s.bestAssign, s.assign)
			copy(s.bestCentroids, s.centroids)
		}
	}
	best.Assign = s.bestAssign
	best.Centroids = s.bestCentroids
	sortCentroids(best)
	return best
}

func legacyLloyd(points []resources.Vector, k, maxIter int, rng *rand.Rand, s *kmScratch) (float64, int) {
	centroids := seedPlusPlus(points, k, rng, s)
	assign := s.assign
	for i := range assign {
		assign[i] = -1
	}
	n := len(points)
	nChunks := parallel.NumChunks(n)
	iterations := 0
	for iter := 0; iter < maxIter; iter++ {
		iterations = iter + 1
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := p.Dist2(cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		sums := make([]resources.Vector, k)
		counts := make([]int, k)
		for chunk := 0; chunk < nChunks; chunk++ {
			lo, hi := parallel.ChunkBounds(chunk, n)
			part := make([]resources.Vector, k)
			partN := make([]int, k)
			for i := lo; i < hi; i++ {
				part[assign[i]] = part[assign[i]].Add(points[i])
				partN[assign[i]]++
			}
			for c := 0; c < k; c++ {
				sums[c] = sums[c].Add(part[c])
				counts[c] += partN[c]
			}
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c].Scale(1 / float64(counts[c]))
			}
		}
	}
	return sumSquares(points, centroids, assign), iterations
}

// requireSameResult fails unless got and want agree bit for bit.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("iterations %d, oracle %d", got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
		t.Fatalf("SSE %v, oracle %v", got.SSE, want.SSE)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("point %d assigned %d, oracle %d", i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Centroids {
		for d := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				t.Fatalf("centroid %d = %v, oracle %v", c, got.Centroids[c], want.Centroids[c])
			}
		}
	}
}

// gridPoints decodes fuzz bytes into points on a coarse grid (eight levels
// per dimension), so duplicate points and equidistant centroids are common.
func gridPoints(data []byte) []resources.Vector {
	var pts []resources.Vector
	for len(data) >= int(resources.NumDims) {
		var v resources.Vector
		for d := range v {
			v[d] = float64(data[d]%8) * 12.5
		}
		pts = append(pts, v)
		data = data[resources.NumDims:]
	}
	return pts
}

func TestKMeansMatchesLloyd(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	many := append(threeBlobs(4), blob(r, resources.New(30, 70, 20, 40), 6, 700)...)
	dup := make([]resources.Vector, 12)
	for i := range dup {
		dup[i] = resources.New(10, 10, 10, 10)
	}
	// Two points with a third exactly between them: the middle one is
	// equidistant from the outer ones whenever they are centres.
	tie := []resources.Vector{resources.New(0, 0, 0, 0), resources.New(10, 0, 0, 0), resources.New(20, 0, 0, 0), resources.New(10, 0, 0, 0)}
	// With seed 44 a centre moves until the middle point is exactly as far
	// from it as from the lower-numbered centre, which did not move: only
	// the strict skip test sends that point to the scan's tie-break.
	drifted := []resources.Vector{resources.New(3, 1, 0, 0), resources.New(5, 1, 0, 0), resources.New(6, 1, 0, 0)}
	cases := []struct {
		name  string
		pts   []resources.Vector
		k     int
		seeds []int64
	}{
		{"blobs", threeBlobs(1), 3, nil},
		{"blobs-k6", threeBlobs(2), 6, nil},
		{"multi-chunk", many, 5, nil},
		{"duplicates", dup, 3, nil},
		{"equidistant", tie, 2, nil},
		{"tie-after-drift", drifted, 2, []int64{44}},
		{"k1", threeBlobs(3), 1, nil},
		{"k=n", tie, len(tie), nil},
		{"k>n", tie, 9, nil},
	}
	for _, tc := range cases {
		seeds := tc.seeds
		if seeds == nil {
			seeds = []int64{1, 2, 3, 4}
		}
		for _, seed := range seeds {
			// The default four restarts, then a single one: the best-of
			// snapshot is exercised and skipped.
			for _, restarts := range []int{0, 1} {
				cfg := Config{K: tc.k, Seed: seed, Restarts: restarts}
				got, err := KMeans(tc.pts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(tc.name, func(t *testing.T) { requireSameResult(t, got, legacyKMeans(tc.pts, cfg)) })
			}
		}
	}
}

func FuzzKMeansMatchesLloyd(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 7, 7, 7, 7, 6, 6, 6, 6}, uint8(2), int64(1), uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2), int64(5), uint16(0))              // duplicates
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0}, uint8(1), int64(3), uint16(0))  // equidistant, K=2
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0}, uint8(0), int64(7), uint16(0))                          // K=1
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}, uint8(3), int64(11), uint16(0)) // K=n
	f.Add([]byte{}, uint8(4), int64(2), uint16(900))                                              // several chunks
	f.Fuzz(func(t *testing.T, data []byte, k uint8, seed int64, extra uint16) {
		pts := gridPoints(data)
		// extra appends points on the same grid drawn around a few random
		// centres, enough of them to span several assignment chunks.
		r := rand.New(rand.NewSource(seed))
		var centres [3]resources.Vector
		for i := range centres {
			for d := range centres[i] {
				centres[i][d] = float64(r.Intn(8))
			}
		}
		for i := 0; i < int(extra%1500); i++ {
			var v resources.Vector
			for d, x := range centres[i%len(centres)] {
				v[d] = (x + float64(r.Intn(3))) * 12.5
			}
			pts = append(pts, v)
		}
		if len(pts) == 0 || len(pts) > 2048 {
			return
		}
		cfg := Config{K: int(k)%len(pts) + 1, Seed: seed}
		got, err := KMeans(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got, legacyKMeans(pts, cfg))
	})
}
