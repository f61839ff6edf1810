package cluster

import (
	"math"
	"sort"

	"cocg/internal/resources"
)

// GraphPartition is the clustering baseline the paper compares K-means
// against in Section V-D1: a similarity-graph method that does not require
// the number of clusters up front. Points become vertices, edges connect
// points closer than an automatically chosen threshold, and connected
// components become clusters.
//
// The paper reports that K-means "demonstrated significantly higher accuracy"
// than this method; the ablation benchmark reproduces that comparison.
func GraphPartition(points []resources.Vector) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	n := len(points)
	threshold := autoThreshold(points)

	// Union-find over the epsilon graph.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if points[i].Dist(points[j]) <= threshold {
				union(i, j)
			}
		}
	}

	// Collapse components into dense cluster IDs.
	ids := map[int]int{}
	assign := make([]int, n)
	for i := range points {
		root := find(i)
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		assign[i] = id
	}
	k := len(ids)
	sums := make([]resources.Vector, k)
	counts := make([]int, k)
	for i, p := range points {
		sums[assign[i]] = sums[assign[i]].Add(p)
		counts[assign[i]]++
	}
	centroids := make([]resources.Vector, k)
	for c := range centroids {
		centroids[c] = sums[c].Scale(1 / float64(counts[c]))
	}
	res := &Result{Centroids: centroids, Assign: assign, Iterations: 1}
	res.SSE = sumSquares(points, centroids, assign)
	sortCentroids(res)
	return res, nil
}

// autoThreshold picks the epsilon for the similarity graph as the largest
// jump in the sorted nearest-neighbor distance distribution — the standard
// heuristic for threshold selection when K is unknown.
func autoThreshold(points []resources.Vector) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	nn := make([]float64, n)
	for i := range points {
		best := math.Inf(1)
		for j := range points {
			if i == j {
				continue
			}
			if d := points[i].Dist(points[j]); d < best {
				best = d
			}
		}
		nn[i] = best
	}
	sort.Float64s(nn)
	// Use a multiple of the median nearest-neighbor distance so that points
	// within a dense cluster connect but separated clusters do not.
	med := nn[n/2]
	if med == 0 {
		// Degenerate: many duplicate points; fall back to the mean.
		var s float64
		for _, d := range nn {
			s += d
		}
		med = s / float64(n)
	}
	return 3 * med
}
