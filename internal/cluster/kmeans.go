// Package cluster implements the frame-clustering algorithms of Section IV-A2
// and the K-sweep of Fig. 14: K-means with k-means++ seeding (the method the
// paper adopts) and a graph-partitioning baseline it compares against.
//
// Concurrency: KMeans runs on its caller's goroutine. Its Lloyd steps walk
// the frames in fixed-size chunks (parallel.ChunkBounds) whose partial sums
// merge in chunk order, which fixes the float result and lets an unchanged
// chunk keep last iteration's partials. Sweep runs its per-K clusterings
// concurrently; each is the same serial run, so the curve does not depend
// on the worker count.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cocg/internal/parallel"
	"cocg/internal/resources"
)

// ErrNoPoints is returned when clustering is attempted on an empty point set.
var ErrNoPoints = errors.New("cluster: no points")

// Result is the outcome of one clustering run.
type Result struct {
	// Centroids holds the K cluster centers, sorted by ascending dominant
	// component so cluster 0 is always the "cheapest" (typically the loading
	// cluster) and IDs are stable across runs.
	Centroids []resources.Vector
	// Assign maps each input point index to its cluster ID.
	Assign []int
	// SSE is the sum of squared distances from each point to its centroid,
	// the quantity plotted on the Y axis of Fig. 14.
	SSE float64
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// Sizes returns how many points landed in each cluster.
func (r *Result) Sizes() []int {
	sizes := make([]int, r.K())
	for _, c := range r.Assign {
		sizes[c]++
	}
	return sizes
}

// Nearest returns the ID of the centroid closest to p; the profiler uses it
// to label frames that arrive after the offline clustering pass.
func (r *Result) Nearest(p resources.Vector) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range r.Centroids {
		if d := p.Dist2(c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Config controls a K-means run.
type Config struct {
	K        int   // number of clusters, >= 1
	Seed     int64 // RNG seed for k-means++ seeding
	Restarts int   // independent restarts, best SSE wins; defaults to 4
}

// maxIter caps each restart's Lloyd iterations.
const maxIter = 100

func (c *Config) withDefaults() Config {
	out := *c
	if out.Restarts <= 0 {
		out.Restarts = 4
	}
	return out
}

// kmScratch holds every buffer the restart and Lloyd-iteration loops reuse.
// One scratch is allocated per KMeans call; restarts and iterations then run
// allocation-free, which matters because the profiler re-clusters every
// game's frame cloud and the Fig. 14 sweep runs K-means once per candidate K.
// Buffer reuse never changes results: each consumer fully reinitializes the
// region it reads (assign is reset per restart, per-chunk partials are zeroed
// per iteration, d2 is overwritten by the first seeding pass).
type kmScratch struct {
	assign       []int                // current restart's point -> cluster
	chunkChanged []bool               // per-chunk assignment-change flags
	chunkSums    [][]resources.Vector // per-chunk partial centroid sums
	chunkCounts  [][]int              // per-chunk partial cluster sizes
	mergeSums    []resources.Vector   // chunk-order merge of chunkSums
	mergeCounts  []int                // chunk-order merge of chunkCounts
	d2           []float64            // k-means++ D² weights
	centroids    []resources.Vector   // current restart's working centroids
	// upper/lower are each point's distance bounds (see lloyd); prev holds
	// the centroids before an update and drift how far each one moved.
	upper []float64
	lower []float64
	prev  []resources.Vector
	drift []float64
	// bestAssign/bestCentroids snapshot the best restart so far; they are
	// the only buffers that outlive the call, as the returned Result.
	bestAssign    []int
	bestCentroids []resources.Vector
}

func newKMScratch(n, k int) *kmScratch {
	nChunks := parallel.NumChunks(n)
	s := &kmScratch{
		assign:        make([]int, n),
		chunkChanged:  make([]bool, nChunks),
		chunkSums:     make([][]resources.Vector, nChunks),
		chunkCounts:   make([][]int, nChunks),
		mergeSums:     make([]resources.Vector, k),
		mergeCounts:   make([]int, k),
		d2:            make([]float64, n),
		centroids:     make([]resources.Vector, 0, k),
		upper:         make([]float64, n),
		lower:         make([]float64, n),
		prev:          make([]resources.Vector, k),
		drift:         make([]float64, k),
		bestAssign:    make([]int, n),
		bestCentroids: make([]resources.Vector, k),
	}
	for c := range s.chunkSums {
		s.chunkSums[c] = make([]resources.Vector, k)
		s.chunkCounts[c] = make([]int, k)
	}
	return s
}

// KMeans clusters points into cfg.K clusters and returns the best result over
// cfg.Restarts independent k-means++ initializations.
func KMeans(points []resources.Vector, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("cluster: invalid K %d", cfg.K)
	}
	c := cfg.withDefaults()
	k := c.K
	if k > len(points) {
		k = len(points)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	scratch := newKMScratch(len(points), k)
	best := &Result{}
	have := false
	for r := 0; r < c.Restarts; r++ {
		sse, iterations := lloyd(points, k, rng, scratch)
		if !have || sse < best.SSE {
			have = true
			best.SSE = sse
			best.Iterations = iterations
			copy(scratch.bestAssign, scratch.assign)
			copy(scratch.bestCentroids, scratch.centroids)
		}
	}
	best.Assign = scratch.bestAssign
	best.Centroids = scratch.bestCentroids
	sortCentroids(best)
	return best, nil
}

// boundSlack is the relative margin of the assignment bounds' skip test. It
// sits many orders above the rounding of a computed distance, so a point the
// test skips is one whose exact scan could not pick another centroid, ties
// included.
const boundSlack = 1e-9

// boundsHold reports whether a point's upper bound u stays clearly below its
// lower bound l, so no centroid but its own can be nearest.
func boundsHold(u, l float64) bool { return u*(1+boundSlack) < l*(1-boundSlack) }

// lloyd runs one k-means++ initialization followed by Lloyd iterations,
// leaving the final assignment and centroids in the scratch. The assignment
// and centroid-update steps walk fixed-size point chunks, and per-chunk
// partial sums merge in chunk order.
//
// The assignment step keeps Hamerly's bounds: per point, an upper bound on
// the distance to its centroid and a lower bound on the distance to every
// other one. When centroids move, each bound moves by the drift (the upper
// by its own centroid's, the lower by the largest other one), inflated by
// boundSlack so rounding can only loosen it. A point whose upper bound stays
// clearly below its lower bound keeps its centroid without a scan; every
// other point runs the exact strict-< scan, so the assignment, centroids,
// SSE and iteration count are those of the plain loop.
func lloyd(points []resources.Vector, k int, rng *rand.Rand, s *kmScratch) (sse float64, iterations int) {
	centroids := seedPlusPlus(points, k, rng, s)
	assign := s.assign
	for i := range assign {
		assign[i] = -1
	}
	n := len(points)
	nChunks := parallel.NumChunks(n)
	upper, lower, drift := s.upper, s.lower, s.drift
	// bounded is false on the first pass, whose scan sets every bound;
	// maxDrift/maxDriftAt and nextDrift are the largest centroid drift, its
	// centroid and the second largest, so a point's lower bound moves by the
	// largest drift of a centroid other than its own.
	bounded := false
	var maxDrift, nextDrift float64
	maxDriftAt := -1
	assignChunk := func(chunk int) {
		lo, hi := parallel.ChunkBounds(chunk, n)
		changed := false
		for i := lo; i < hi; i++ {
			p := points[i]
			if bounded {
				a := assign[i]
				other := maxDrift
				if a == maxDriftAt {
					other = nextDrift
				}
				upper[i] += drift[a]
				lower[i] -= other
				if boundsHold(upper[i], lower[i]) {
					continue
				}
				upper[i] = math.Sqrt(p.Dist2(centroids[a]))
				if boundsHold(upper[i], lower[i]) {
					continue
				}
			}
			best, bestD, nextD := 0, math.Inf(1), math.Inf(1)
			for c, cent := range centroids {
				if d := p.Dist2(cent); d < bestD {
					best, bestD, nextD = c, d, bestD
				} else if d < nextD {
					nextD = d
				}
			}
			upper[i], lower[i] = math.Sqrt(bestD), math.Sqrt(nextD)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		s.chunkChanged[chunk] = changed
	}
	updateChunk := func(chunk int) {
		// A chunk none of whose points moved keeps last iteration's
		// partials: they are the same sums of the same points. The first
		// pass moves every point off -1, so every chunk starts computed.
		if !s.chunkChanged[chunk] {
			return
		}
		lo, hi := parallel.ChunkBounds(chunk, n)
		sums := s.chunkSums[chunk]
		counts := s.chunkCounts[chunk]
		for c := range sums {
			sums[c] = resources.Vector{}
			counts[c] = 0
		}
		for i := lo; i < hi; i++ {
			sums[assign[i]] = sums[assign[i]].Add(points[i])
			counts[assign[i]]++
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		iterations = iter + 1
		changed := false
		for chunk := range nChunks {
			assignChunk(chunk)
			changed = changed || s.chunkChanged[chunk]
		}
		bounded = true
		if !changed {
			break
		}
		// Recompute centroids; an emptied cluster keeps its old center,
		// which is the standard fix and keeps K stable.
		for chunk := range nChunks {
			updateChunk(chunk)
		}
		sums := s.mergeSums
		counts := s.mergeCounts
		for c := 0; c < k; c++ {
			sums[c] = resources.Vector{}
			counts[c] = 0
		}
		for chunk := 0; chunk < nChunks; chunk++ {
			for c := 0; c < k; c++ {
				sums[c] = sums[c].Add(s.chunkSums[chunk][c])
				counts[c] += s.chunkCounts[chunk][c]
			}
		}
		copy(s.prev, centroids)
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c].Scale(1 / float64(counts[c]))
			}
		}
		maxDrift, nextDrift, maxDriftAt = 0, 0, -1
		for c := range centroids {
			drift[c] = math.Sqrt(s.prev[c].Dist2(centroids[c])) * (1 + boundSlack)
			if drift[c] > maxDrift {
				maxDrift, nextDrift, maxDriftAt = drift[c], maxDrift, c
			} else if drift[c] > nextDrift {
				nextDrift = drift[c]
			}
		}
	}
	return sumSquares(points, centroids, assign), iterations
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting,
// reusing the scratch's centroid and weight buffers. The RNG draw sequence
// is identical to a fresh-buffer run.
func seedPlusPlus(points []resources.Vector, k int, rng *rand.Rand, s *kmScratch) []resources.Vector {
	centroids := s.centroids[:0]
	centroids = append(centroids, points[rng.Intn(len(points))])
	d2 := s.d2
	for len(centroids) < k {
		var total float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := p.Dist2(last)
			// The first pass overwrites d2 unconditionally, so stale weights
			// from a previous restart never leak in.
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with a center; duplicate one.
			centroids = append(centroids, points[rng.Intn(len(points))])
			continue
		}
		target := rng.Float64() * total
		var acc float64
		chosen := len(points) - 1
		for i, w := range d2 {
			acc += w
			if acc >= target {
				chosen = i
				break
			}
		}
		centroids = append(centroids, points[chosen])
	}
	s.centroids = centroids
	return centroids
}

// sumSquares returns the sum of squared distances from each point to its centroid,
// folded per fixed-size chunk and the chunk sums added in chunk order.
func sumSquares(points, centroids []resources.Vector, assign []int) float64 {
	var total float64
	for chunk := range parallel.NumChunks(len(points)) {
		lo, hi := parallel.ChunkBounds(chunk, len(points))
		var s float64
		for i := lo; i < hi; i++ {
			s += points[i].Dist2(centroids[assign[i]])
		}
		total += s
	}
	return total
}

// sortCentroids renumbers clusters by ascending dominant resource so IDs are
// deterministic: cluster 0 is the low-consumption (loading-like) cluster.
func sortCentroids(r *Result) {
	k := len(r.Centroids)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := r.Centroids[order[a]], r.Centroids[order[b]]
		if da, db := ca.Dominant(), cb.Dominant(); da != db {
			return da < db
		}
		return ca.L2() < cb.L2()
	})
	remap := make([]int, k)
	newCents := make([]resources.Vector, k)
	for newID, oldID := range order {
		remap[oldID] = newID
		newCents[newID] = r.Centroids[oldID]
	}
	r.Centroids = newCents
	for i, a := range r.Assign {
		r.Assign[i] = remap[a]
	}
}

// SweepPoint is one (K, SSE) sample of Fig. 14.
type SweepPoint struct {
	K   int
	SSE float64
}

// Sweep runs K-means for every K in [1, maxK] and returns the SSE curve of
// Fig. 14. The same seed is reused so curves are reproducible. The per-K
// runs are independent (each seeds its own RNG), so they execute
// concurrently on up to workers goroutines; <= 0 means GOMAXPROCS.
func Sweep(points []resources.Vector, maxK int, seed int64, workers int) ([]SweepPoint, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	out := make([]SweepPoint, maxK)
	errs := make([]error, maxK)
	parallel.For(workers, maxK, func(i int) {
		k := i + 1
		res, err := KMeans(points, Config{K: k, Seed: seed})
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = SweepPoint{K: k, SSE: res.SSE}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Elbow picks the inflection point of an SSE curve: the K after which the
// marginal SSE reduction falls below frac (e.g. 0.1 = 10 %) of the total
// drop. This encodes the paper's "obvious inflection points" reading of
// Fig. 14.
func Elbow(curve []SweepPoint, frac float64) int {
	if len(curve) == 0 {
		return 0
	}
	if len(curve) == 1 {
		return curve[0].K
	}
	total := curve[0].SSE - curve[len(curve)-1].SSE
	if total <= 0 {
		return curve[0].K
	}
	for i := 1; i < len(curve); i++ {
		drop := curve[i-1].SSE - curve[i].SSE
		if drop < frac*total {
			return curve[i-1].K
		}
	}
	return curve[len(curve)-1].K
}
