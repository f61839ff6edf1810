// Fleet load accounting: the backing store for FleetLoadInto. The
// distributor's per-server forecast caches (scheduler.go) already hold every
// quantity a fleet summary needs under one platform.Stamp; this
// file adds a per-server load memo on top of that stamp and folds the memos
// into the cluster summary in one pass in server order. A poll
// costs one stamp comparison per server plus a refill of every server whose
// stamp moved. A busy fleet dirties every hosting server every second, so
// the memo is what a poll costs in practice, and it
// is made where the data is hot: a refill whose predecessor's memo was read
// computes the new one off the runs it has just forecast (refill), and a
// policy nobody polls never computes any; only the first poll after a quiet
// spell forecasts a second time. The fold itself is a handful of additions
// per server and needs no structure of its own. Because it accumulates in
// server order, its mean headroom carries the bits of ClusterLoadFullScan's,
// and a rebuild from nothing (FleetLoadFull) reproduces every field exactly.
// Per-game demand sums each session's forecast one run at a time (fracSum: a
// multiply per run, not an add per frame), so it is the per-frame sum only to
// rounding; the memo and the rebuild both fold through fracSum, so they still
// agree bit for bit.
package scheduler

import (
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

// worstFrac is the worst per-dimension fraction of capacity a demand vector
// occupies (dimensions with zero capacity are skipped, matching the headroom
// guard in ClusterLoadFullScan).
func worstFrac(v, capacity resources.Vector) float64 {
	worst := 0.0
	for d := range v {
		if capd := capacity[d]; capd > 0 {
			if f := v[d] / capd; f > worst {
				worst = f
			}
		}
	}
	return worst
}

// fracSum is one session's contribution to its game's predicted demand: the
// worst per-dimension capacity fraction of every forecast frame, summed over
// the forecast. Each run contributes its fraction times its frame count in one
// multiply, so the sum can differ from a frame-by-frame fold in its last bits
// (a relative 1e-12 at most over a horizon; TestFracSumMatchesPerFrameFold).
// Nothing decides on those bits: GameDemand is an observability figure.
//
//cocg:hot
func fracSum(runs []predictor.Segment, capacity resources.Vector) float64 {
	var sum float64
	for i := range runs {
		sum += worstFrac(runs[i].Demand, capacity) * float64(runs[i].Frames)
	}
	return sum
}

// serverLoadMemo makes the cache's fleet-accounting memo — the server's
// predicted headroom and per-game demand contributions — valid under the
// cache's current stamp, and notes that a summary read it, so the next refill
// computes the memo itself (refresh). When the refill that stamped the cache
// did not — nothing had read the previous memo — the server is refilled once
// more, memo included: the same pure function of the stamped state, so the
// same aggregates, and only the first poll after a quiet spell pays for it.
func (c *CoCG) serverLoadMemo(cc *serverCache, srv *platform.Server) {
	if !cc.loadValid {
		c.refill(cc, srv, cc.stamp, true)
	}
	cc.loadUsed = true
}

// FleetLoadInto implements platform.FleetSummarizer: the per-cluster summary
// the coordinator tier routes on, with predicted demand broken out per game.
// Each server's cache is refreshed (O(1) when its stamp has not moved; a
// membership change or a simulated second rebuilds it), its load memo is
// filled if the refresh did not already make it, and the memo is added into
// out in server order. Out's GameDemand storage is reused across polls
// and Games aliases the policy's immutable sorted list, so a poll over an
// unchanged fleet does no heap allocation. Like Score this is a serial entry
// point.
func (c *CoCG) FleetLoadInto(servers []*platform.Server, out *platform.FleetLoad) {
	c.fleetLoad(servers, out, false)
}

// FleetLoadFull is the from-scratch reference the equivalence tests compare
// against: it summarizes through a throwaway cache per server, so every
// forecast and load memo is rebuilt and the servers' own caches are neither
// read nor written.
func (c *CoCG) FleetLoadFull(servers []*platform.Server, out *platform.FleetLoad) {
	c.fleetLoad(servers, out, true)
}

// fleetLoad folds the servers' load memos into out, reading each server's own
// cache, or a throwaway one when fresh is set.
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
		c.serverLoadMemo(cc, srv)
		for j, d := range cc.gameDemand {
			demand[j] += d
		}
		headSum += cc.headroom
	}

	out.MeanHeadroom = headSum / max(1, float64(len(servers))) // 0 for no servers
	out.Games = c.games
	out.GameDemand = demand
}
