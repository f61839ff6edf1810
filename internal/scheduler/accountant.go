// Fleet load accountant: the incremental backing store for ClusterLoad and
// FleetLoadInto. The distributor's per-server forecast caches (scheduler.go)
// already hold every quantity a fleet summary needs under one
// (Server.Rev, Server.ForecastGen, horizon, draining) stamp; this file adds a
// per-server load memo on top of that stamp and keeps the cluster aggregate
// in a fixed-topology pairwise summation tree, so a poll costs one stamp
// comparison per server plus O(dirty·log n) fold work. A busy fleet dirties
// every hosting server once per frame, so the per-dirty-server refill — which
// reads the cached forecast runs instead of forecasting again — is what a
// poll costs in practice.
//
// The tree is a complete binary tree over power-of-two leaf slots stored in
// flat arrays (node i's children are 2i and 2i+1, leaf slot s lives at index
// leaves+s, the root is node 1). Every aggregate — headroom sum, per-game
// demand, active/idle/draining counts — folds bottom-up in the same fixed
// order no matter which leaves changed, so an incremental refold is
// bit-identical to rebuilding the whole tree from scratch: an unchanged leaf
// keeps its exact bits, equal children fold to equal parents, and induction
// carries that to the root. FleetLoadFull is the from-scratch rebuild the
// equivalence tests compare against.
package scheduler

import (
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

// acctSlot stamps what one leaf of the summation tree was computed from. A
// slot is dirty — its leaf must be recomputed — when the server occupying it
// changed identity or its stamp moved. The slot keeps its own copy of the
// stamp: the admission path refreshes the serverCache's without updating the
// leaf.
type acctSlot struct {
	srv   *platform.Server
	stamp stamp
	// volatile marks servers whose demand mutates outside any revision
	// counter (foreign controllers, untrained specs — the same condition
	// that makes a serverCache uncacheable); their leaves recompute every
	// poll.
	volatile bool
}

// fleetAccountant is the fixed-topology summation tree plus its leaf stamps.
// All node arrays are 2·leaves long (index 0 unused); demand is node-major
// with games floats per node.
type fleetAccountant struct {
	leaves int
	games  int
	// used is the number of leaf slots the previous poll occupied; a
	// shrinking server list zeroes the abandoned tail.
	used int

	head   []float64
	demand []float64
	active []int32
	idle   []int32
	drain  []int32
	slots  []acctSlot
}

// ensure sizes the tree for n servers and g games. Growth reallocates and
// zeroes everything — every slot comes back dirty (nil srv) — and the leaf
// count never shrinks, so a fleet that oscillates around a power of two does
// not thrash.
func (a *fleetAccountant) ensure(n, g int) {
	if a.leaves >= 2 && n <= a.leaves && g == a.games && len(a.slots) == a.leaves {
		return
	}
	leaves := 2
	for leaves < n {
		leaves <<= 1
	}
	if leaves < a.leaves {
		leaves = a.leaves
	}
	a.leaves = leaves
	a.games = g
	a.used = 0
	a.head = make([]float64, 2*leaves)
	a.demand = make([]float64, 2*leaves*g)
	a.active = make([]int32, 2*leaves)
	a.idle = make([]int32, 2*leaves)
	a.drain = make([]int32, 2*leaves)
	a.slots = make([]acctSlot, leaves)
}

// setLeaf writes one server's contribution into its leaf slot.
//
//cocg:hot
func (a *fleetAccountant) setLeaf(slot int, head float64, demand []float64, active, idle, drain int32) {
	i := a.leaves + slot
	a.head[i] = head
	a.active[i] = active
	a.idle[i] = idle
	a.drain[i] = drain
	g := a.games
	copy(a.demand[i*g:(i+1)*g], demand)
}

// clearLeaf zeroes a leaf a departed server used to occupy.
func (a *fleetAccountant) clearLeaf(slot int) {
	i := a.leaves + slot
	a.head[i] = 0
	a.active[i] = 0
	a.idle[i] = 0
	a.drain[i] = 0
	g := a.games
	b := a.demand[i*g : (i+1)*g]
	for j := range b {
		b[j] = 0
	}
	a.slots[slot] = acctSlot{}
}

// foldPath refolds every ancestor of a leaf, bottom-up. Dirty leaves are
// processed in increasing slot order, so by the time the last dirty leaf
// under any node folds, both children hold their final values — the node's
// final fold is then the exact left+right addition a full rebuild performs,
// which is what makes incremental and from-scratch summaries bit-identical.
//
//cocg:hot
func (a *fleetAccountant) foldPath(slot int) {
	g := a.games
	for n := (a.leaves + slot) >> 1; n >= 1; n >>= 1 {
		l, r := 2*n, 2*n+1
		a.head[n] = a.head[l] + a.head[r]
		a.active[n] = a.active[l] + a.active[r]
		a.idle[n] = a.idle[l] + a.idle[r]
		a.drain[n] = a.drain[l] + a.drain[r]
		lb := a.demand[l*g : (l+1)*g]
		rb := a.demand[r*g : (r+1)*g]
		nb := a.demand[n*g : (n+1)*g]
		for j := range nb {
			nb[j] = lb[j] + rb[j]
		}
	}
}

// dirty reports whether the leaf stamped by sl no longer reflects srv at
// horizon h.
//
//cocg:hot
func (sl *acctSlot) dirty(srv *platform.Server, h int) bool {
	return sl.srv != srv || sl.volatile || sl.stamp != stampOf(srv, h)
}

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
// worst per-dimension capacity fraction of every forecast frame, summed in
// frame order. The fraction is computed once per run and re-added Frames
// times, so the sum keeps the bits of the per-frame fold.
//
//cocg:hot
func fracSum(runs []predictor.Segment, capacity resources.Vector) float64 {
	var sum float64
	for i := range runs {
		w := worstFrac(runs[i].Demand, capacity)
		for n := runs[i].Frames; n > 0; n-- {
			sum += w
		}
	}
	return sum
}

// serverLoadMemo fills the cache's fleet-accounting memo — the server's
// predicted headroom and per-game demand contributions — under the cache's
// current stamp. refresh clears loadValid on every rebuild, so the memo is
// recomputed lazily on the first summary after a change and the admission
// path never pays for it. Headroom takes the per-dimension peak of the summed
// timeline first and divides once: correctly rounded division by a positive
// capacity is monotone, so max_t(x_t/c) == max_t(x_t)/c exactly and the bits
// match ClusterLoadFullScan's divide-every-frame scan.
func (c *CoCG) serverLoadMemo(cc *serverCache, srv *platform.Server) {
	if cc.loadValid {
		return
	}
	head := 1 - worstFrac(resources.PeakOf(cc.total), srv.Capacity)
	if head < 0 {
		head = 0
	}
	cc.headroom = head

	g := len(c.games)
	if cap(cc.gameDemand) < g {
		cc.gameDemand = make([]float64, g)
	}
	cc.gameDemand = cc.gameDemand[:g]
	clear(cc.gameDemand)
	h := float64(cc.stamp.horizon)
	start := 0
	for i, hosted := range srv.Hosted {
		runs := cc.runs[start:cc.runEnd[i]]
		start = cc.runEnd[i]
		gi, known := c.gameIdx[hosted.Spec.Name]
		if !known {
			continue
		}
		var sum float64
		if _, native := hosted.Controller.(*Controller); native {
			sum = fracSum(runs, srv.Capacity)
		} else {
			// Foreign controller: the conservative flat timeline refresh
			// uses — the session holds its current request for the whole
			// horizon.
			sum = worstFrac(hosted.Request, srv.Capacity) * h
		}
		cc.gameDemand[gi] += sum / h
	}
	cc.loadValid = true
}

// FleetLoadInto implements platform.FleetSummarizer: the extended per-game
// cluster summary, computed incrementally. Dirty slots (stamp mismatch: a
// membership change, a completed frame, a drain flip, a horizon move) refresh
// their cache, refill the load memo, rewrite their leaf and refold its root
// path; clean slots cost one stamp comparison. Out's GameDemand storage is
// reused across polls and Games aliases the policy's immutable sorted list,
// so a steady-state poll performs zero heap allocations. Like Admit, Score
// and ClusterLoad this is a serial entry point.
func (c *CoCG) FleetLoadInto(servers []*platform.Server, out *platform.FleetLoad) bool {
	c.sweepCaches(servers)
	h := c.cfg.HorizonFrames
	g := len(c.games)
	a := &c.acct
	a.ensure(len(servers), g)

	for i, srv := range servers {
		sl := &a.slots[i]
		if !sl.dirty(srv, h) {
			continue
		}
		cc := c.caches[srv]
		if cc == nil {
			cc = &serverCache{}
			c.caches[srv] = cc
		}
		c.refresh(cc, srv, h, &c.scratch)
		c.serverLoadMemo(cc, srv)
		*sl = acctSlot{srv: srv, stamp: cc.stamp, volatile: !cc.cacheable}
		if srv.Draining {
			a.setLeaf(i, 0, cc.gameDemand, 0, 0, 1)
		} else {
			idle := int32(0)
			if srv.NumHosted() == 0 {
				idle = 1
			}
			a.setLeaf(i, cc.headroom, cc.gameDemand, 1, idle, 0)
		}
		a.foldPath(i)
	}
	for i := len(servers); i < a.used; i++ {
		a.clearLeaf(i)
		a.foldPath(i)
	}
	a.used = len(servers)

	out.Servers = len(servers)
	out.Active = int(a.active[1])
	out.Idle = int(a.idle[1])
	out.Draining = int(a.drain[1])
	if out.Active > 0 {
		out.MeanHeadroom = a.head[1] / float64(out.Active)
	} else {
		out.MeanHeadroom = 0 // every server draining: no admittable capacity
	}
	out.Games = c.games
	out.GameDemand = append(out.GameDemand[:0], a.demand[g:2*g]...)
	return true
}

// FleetLoadFull is the from-scratch reference: it invalidates every load
// memo and rebuilds the summation tree whole, then summarizes. Because the
// tree's topology and fold order are fixed, the result is bit-identical to
// the incremental path — the equivalence tests enforce exactly that.
func (c *CoCG) FleetLoadFull(servers []*platform.Server, out *platform.FleetLoad) bool {
	for _, srv := range servers {
		if cc := c.caches[srv]; cc != nil {
			cc.loadValid = false
		}
	}
	c.acct = fleetAccountant{}
	return c.FleetLoadInto(servers, out)
}

// cacheSweepSlack is how far past twice the live fleet size the cache map may
// grow before sweepCaches evicts entries for departed servers; the slack
// keeps small fleets from sweeping on every membership wiggle.
const cacheSweepSlack = 32

// sweepCaches evicts cache entries whose server is no longer in the fleet.
// The map keys on server identity, so without eviction a removed or replaced
// server pins its cache (and its forecast timeline storage) forever — a real
// leak once autoscaling makes membership churn routine. The sweep is
// amortized: it runs only when the map has outgrown the live fleet by more
// than half, stamps the live entries with a fresh epoch, and deletes the
// rest.
func (c *CoCG) sweepCaches(servers []*platform.Server) {
	if len(c.caches) <= 2*len(servers)+cacheSweepSlack {
		return
	}
	c.cacheEpoch++
	for _, srv := range servers {
		if cc := c.caches[srv]; cc != nil {
			cc.seen = c.cacheEpoch
		}
	}
	for srv, cc := range c.caches {
		if cc.seen != c.cacheEpoch {
			delete(c.caches, srv)
		}
	}
}
