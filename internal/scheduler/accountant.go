// Fleet load accounting: the backing store for FleetLoadInto. Every refill of
// a distributor's per-server forecast cache (scheduler.go) also takes the
// server's headroom and per-game demand contributions, off the runs it has
// just forecast, so the cache holds every quantity a fleet summary needs under
// one platform.Stamp. A poll refreshes each server's cache — one stamp
// comparison, plus a refill when the stamp moved, which a busy fleet does
// every second — and folds the contributions into the cluster summary in one
// pass in server order. Because it accumulates in server order, its mean
// headroom carries the bits of ClusterLoadFullScan's, and a rebuild from
// nothing (FleetLoadFull) reproduces every field exactly. Per-game demand
// sums each session's forecast one run at a time (fracSum: a multiply per
// run, not an add per frame), so it is the per-frame sum only to rounding;
// the cache and the rebuild both fold through fracSum, so they still agree
// bit for bit.
package scheduler

import (
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

// worstFrac is the worst fraction of a positive capacity, the same in every
// dimension (cacheOf), that a demand vector occupies; components that are not
// above zero (NaN included) count as none. It divides the largest component
// once: correctly rounded division by a positive constant is monotone, so that
// is the largest per-dimension quotient, bit for bit.
func worstFrac(v resources.V4, capacity float64) float64 {
	worst := 0.0
	for _, x := range [...]float64{v.C0, v.C1, v.C2, v.C3} {
		if x > worst {
			worst = x
		}
	}
	return worst / capacity
}

// fracSum is one session's contribution to its game's predicted demand: the
// worst per-dimension capacity fraction of every forecast frame, summed over
// the forecast. Each run contributes its fraction times its frame count in one
// multiply, so the sum can differ from a frame-by-frame fold in its last bits
// (a relative 1e-12 at most over a horizon; TestFracSumMatchesPerFrameFold).
// Nothing decides on those bits: GameDemand is an observability figure.
//
//cocg:hot
func fracSum(runs []predictor.Segment, capacity float64) float64 {
	var sum float64
	for i := range runs {
		sum += worstFrac(runs[i].Demand.Load(), capacity) * float64(runs[i].Frames)
	}
	return sum
}

// FleetLoadInto implements platform.FleetSummarizer: the per-cluster summary
// the coordinator tier routes on, with predicted demand broken out per game.
// Each server's cache is refreshed (O(1) when its stamp has not moved; a
// membership change or a simulated second rebuilds it) and its contributions
// are added into out in server order. Out's GameDemand storage is reused across polls
// and Games aliases the policy's immutable sorted list, so a poll over an
// unchanged fleet does no heap allocation. Like Score this is a serial entry
// point.
func (c *CoCG) FleetLoadInto(servers []*platform.Server, out *platform.FleetLoad) {
	c.fleetLoad(servers, out, false)
}

// FleetLoadFull is the from-scratch reference the equivalence tests compare
// against: it summarizes through a throwaway cache per server, so every
// forecast and contribution is rebuilt and the servers' own caches are
// neither read nor written.
func (c *CoCG) FleetLoadFull(servers []*platform.Server, out *platform.FleetLoad) {
	c.fleetLoad(servers, out, true)
}

// fleetLoad folds the servers' refreshed contributions into out, reading each
// server's own cache, or a throwaway one when fresh is set.
func (c *CoCG) fleetLoad(servers []*platform.Server, out *platform.FleetLoad, fresh bool) {
	g := len(c.games)
	if cap(out.GameDemand) < g {
		out.GameDemand = make([]float64, g)
	}
	demand := out.GameDemand[:g]
	clear(demand)

	var headSum float64
	for _, srv := range servers {
		var cc *serverCache
		if fresh {
			cc = c.newCache()
		} else {
			cc = c.cacheOf(srv)
		}
		c.refresh(cc, srv)
		for j, d := range cc.gameDemand {
			demand[j] += d
		}
		headSum += cc.headroom
	}

	out.MeanHeadroom = headSum / max(1, float64(len(servers))) // 0 for no servers
	out.Games = c.games
	out.GameDemand = demand
}
