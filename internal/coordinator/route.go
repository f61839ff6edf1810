package coordinator

import (
	"cmp"
	"slices"

	"cocg/internal/gamesim"
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
// call *order holds the preference-ordered cluster IDs. The views are scored
// in one serial loop. jobs is ignored: it stays only because bench/cocgbench's
// coordinator.rank_ns probe passes it, and it goes when bench/ is next
// editable (ROADMAP item 2).
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
	for i := range views {
		v := &views[i]
		sl[i] = v.Headroom - w.Latency*(v.LatencyMS/w.RefLatencyMS)*sens
	}
	out := (*order)[:0]
	for i := range views {
		if views[i].Healthy {
			out = append(out, i)
		}
	}
	// Deterministic preference order: higher score first, lowest ID on exact
	// ties. The comparator is a strict total order (IDs are unique), so the
	// sort's sequence does not depend on its algorithm.
	slices.SortFunc(out, func(a, b int) int {
		if sl[a] != sl[b] {
			if sl[a] > sl[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(views[a].ID, views[b].ID)
	})
	for i := range out {
		out[i] = views[out[i]].ID
	}
	*order = out
}
