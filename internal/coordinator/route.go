package coordinator

import (
	"cocg/internal/gamesim"
	"cocg/internal/parallel"
)

// ClusterView is the immutable per-cluster snapshot one routing decision
// reads: identity, simulated user→region latency, and the last load summary
// the health prober pulled. Routing is a pure function of a []ClusterView —
// the coordinator freezes the views under its lock, ranks them, and only
// then touches the network — which is what makes decisions reproducible and
// testable without a live fleet.
type ClusterView struct {
	// ID is the cluster's dense index in configuration order; it is the
	// deterministic tie-break key (lowest wins).
	ID int
	// Healthy is the prober's verdict; unhealthy clusters never appear in a
	// routing order.
	Healthy bool
	// LatencyMS is the simulated user→region round-trip time.
	LatencyMS float64
	// Headroom is the cluster's predicted free capacity fraction in [0,1]
	// from its last ClusterSummary (forecast-backed under CoCG).
	Headroom float64
	// LiveSessions is the cluster's connected-session count at summary time.
	LiveSessions int
}

// RouteWeights tunes the routing score. The zero value selects the defaults
// noted per field.
type RouteWeights struct {
	// Latency is the score cost of RefLatencyMS of round-trip time for a
	// fully latency-sensitive game (sensitivity 1.0); <=0 means 0.5 — i.e.
	// with the default reference, 100 ms of RTT outweighs half a cluster of
	// predicted headroom.
	Latency float64
	// RefLatencyMS is the round-trip time that costs exactly Latency score
	// points; <=0 means 100.
	RefLatencyMS float64
}

func (w RouteWeights) withDefaults() RouteWeights {
	if w.Latency <= 0 {
		w.Latency = 0.5
	}
	if w.RefLatencyMS <= 0 {
		w.RefLatencyMS = 100
	}
	return w
}

// LatencySensitivity returns the weight, in [0.25, 1.5], with which a game's
// routing decision counts region latency ("Games Are Not Equal": a
// twitch-paced shooter pays far more per millisecond than a menu-driven web
// game). It scales with the game's effective frame rate — the faster the
// frame lock, the less slack a round trip has — damped for the Web category
// (low interaction pressure) and boosted for MMORPG/MOBA (competitive play).
// Unknown specs (nil) get 1.
func LatencySensitivity(spec *gamesim.GameSpec) float64 {
	if spec == nil {
		return 1
	}
	s := spec.EffectiveFPS() / 60
	switch spec.Category {
	case gamesim.Web:
		s *= 0.5
	case gamesim.MMORPG:
		s *= 1.25
	}
	if s < 0.25 {
		s = 0.25
	}
	if s > 1.5 {
		s = 1.5
	}
	return s
}

// routeChunk is RankInto's fan-out granularity: views are scored in fixed
// 8-wide chunks so the decomposition — and therefore every float the scan
// produces — is independent of the worker count.
const routeChunk = 8

// Rank scores every healthy cluster view and returns their IDs in preference
// order: primary routing choice first, then each failover candidate. The
// score is
//
//	Headroom − Latency × (LatencyMS / RefLatencyMS) × LatencySensitivity(spec)
//
// — predicted load headroom traded against user→region latency, weighted by
// how much this game cares. The views are scored serially, then ordered by
// a strict comparison sort with lowest-ID tie-break. Unhealthy views are
// excluded; an empty result means no cluster is routable.
func Rank(views []ClusterView, spec *gamesim.GameSpec, w RouteWeights) []int {
	order := make([]int, 0, len(views))
	scores := make([]float64, len(views))
	RankInto(views, spec, w, 1, &order, &scores)
	return order
}

// RankInto is Rank with caller-owned storage: order and scores are reset and
// reused, so a hot routing path allocates nothing in steady state. After the
// call *order holds the preference-ordered cluster IDs. With jobs > 1 the
// scoring fans out in fixed chunks and the result is bit-identical at every
// jobs value. The coordinator never fans out — it routes over a handful of
// regions; jobs and the fan-out stay only because bench/cocgbench's
// coordinator.rank_ns probe calls RankInto (with 1), and they go when bench/
// is next editable (ROADMAP item 2).
//
//cocg:hot
func RankInto(views []ClusterView, spec *gamesim.GameSpec, w RouteWeights, jobs int, order *[]int, scores *[]float64) {
	w = w.withDefaults()
	sens := LatencySensitivity(spec)
	n := len(views)
	if cap(*scores) < n {
		*scores = make([]float64, n) //cocg:lint-ignore hotalloc grow path; fires once per fleet-size increase, steady state reuses the buffer
	}
	sl := (*scores)[:n]
	if jobs <= 1 {
		// Inline serial scan: the steady-state routing path stays off the
		// allocator (no closure, no fan-out machinery).
		for i := range views {
			v := &views[i]
			sl[i] = v.Headroom - w.Latency*(v.LatencyMS/w.RefLatencyMS)*sens
		}
	} else {
		parallel.ForChunksOf(jobs, n, routeChunk, func(chunk, lo, hi int) { //cocg:lint-ignore hotalloc fan-out closure; only reached when jobs > 1, the serial hot path above stays allocation-free
			for i := lo; i < hi; i++ {
				v := &views[i]
				sl[i] = v.Headroom - w.Latency*(v.LatencyMS/w.RefLatencyMS)*sens
			}
		})
	}
	out := (*order)[:0]
	for i := range views {
		if views[i].Healthy {
			out = append(out, i)
		}
	}
	// Deterministic preference order: higher score first, lowest ID on exact
	// ties. The comparator is a strict total order (IDs are unique), so any
	// comparison sort yields the identical sequence — an in-place heapsort
	// keeps the hot path allocation-free without going quadratic on large
	// fleets. It never consults anything the parallel scan could reorder —
	// scores live in per-view slots filled by fixed chunks — so the order is
	// bit-identical at every worker count.
	m := len(out)
	if m <= 16 {
		// Typical fleets are a handful of regions: straight insertion beats
		// the heap's constant factor there and produces the same sequence.
		for i := 1; i < m; i++ {
			for j := i; j > 0 && rankBefore(sl, views, out[j], out[j-1]); j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
	} else {
		for i := m/2 - 1; i >= 0; i-- {
			siftWorstDown(out, i, m, sl, views)
		}
		for i := m - 1; i > 0; i-- {
			out[0], out[i] = out[i], out[0]
			siftWorstDown(out, 0, i, sl, views)
		}
	}
	for i := range out {
		out[i] = views[out[i]].ID
	}
	*order = out
}

// rankBefore reports whether view index a precedes view index b in the
// routing preference order: higher score first, lowest ID on exact ties.
func rankBefore(sl []float64, views []ClusterView, a, b int) bool {
	if sl[a] != sl[b] {
		return sl[a] > sl[b]
	}
	return views[a].ID < views[b].ID
}

// siftWorstDown restores the max-heap property (worst-ranked view at the
// root) for the subtree of out[:n] rooted at root, so the heapsort above
// leaves out in preference order, best first.
func siftWorstDown(out []int, root, n int, sl []float64, views []ClusterView) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && rankBefore(sl, views, out[c], out[c+1]) {
			c++ // right child ranks after the left: it is the worse one
		}
		if rankBefore(sl, views, out[c], out[root]) {
			return // root already ranks after both children
		}
		out[root], out[c] = out[c], out[root]
		root = c
	}
}
