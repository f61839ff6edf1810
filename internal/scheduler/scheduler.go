// Package scheduler implements CoCG's complementary resource scheduler
// (Section IV-C): the distributor (Algorithm 1) that admits a game onto a
// busy server only when the predicted per-game timelines never overlap past
// capacity, and the regulator that resolves residual spikes by extending
// loading stages and exploiting the short/long game distinction.
//
// A Policy reads the shared Trained bundle (profiles and models, immutable
// after training) but keeps per-cluster mutable state, so each concurrently
// simulated cluster needs its own Policy instance — core.System.NewCluster
// constructs one per call for exactly this reason. The policy draws no
// randomness of its own: given the same arrival stream and seeds, every
// admission and regulation decision replays identically, which is what lets
// the experiment harness fan out whole simulations across goroutines without
// changing any figure.
package scheduler

import (
	"fmt"
	"sort"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

// The paper's admission and regulation constants.
const (
	// safetyMargin keeps the admitted worst-case total this many percent
	// points below capacity: Fig. 9 keeps combined utilization under 95 %.
	safetyMargin = 5
	// horizonFrames is how far ahead (in 5-second frames) the distributor
	// sums predicted timelines: 10 minutes.
	horizonFrames = 120
	// loadingFloor is the fraction of a loading game's request the regulator
	// never cuts below, so loading always progresses.
	loadingFloor = 0.35
	// minMeanSat is the minimum predicted mean demand-satisfaction over the
	// admission window. Section IV-D's operators accept bounded degradation
	// from brief peak interleaving (which the regulator then spreads over
	// loading stages), but not sustained oversubscription.
	minMeanSat = 0.95
	// fpsSafety scales the hard per-game FPS floor: every co-located game
	// must be predicted to keep fpsSafety × 30 FPS even at the worst
	// predicted overlap (the paper's minimum playable frame rate,
	// Section V-C2).
	fpsSafety = 1.15
)

// Config tunes the CoCG policy.
type Config struct {
	// DisableLoadingSteal turns the regulator's loading-time extension off
	// (ablation).
	DisableLoadingSteal bool
}

// CoCG is the paper's scheduling policy over a set of offline-trained games.
//
// Each server carries its forecast cache in Server.PolicyState (see cacheOf),
// so the cache leaves the fleet with its server.
//
// Concurrency: every entry point is serial. The placement side — Score and
// FleetLoadInto — reads and refills the servers' forecast caches; the
// per-second side — Regulate, the controllers — touches only the server it is
// handed and never the caches.
type CoCG struct {
	cfg Config

	// scratch serves the serial entry points (Score, FleetLoadInto).
	scratch evalScratch

	// games lists the trained game names in sorted order; gameIdx inverts it
	// and game is parallel to it. The fleet summary's per-game demand columns
	// and the verdict memos use these indices, and FleetLoad.Games aliases the
	// slice (all three immutable after New).
	games   []string
	gameIdx map[string]int
	game    []gameEntry
}

// gameEntry is one trained game's bundle beside the two admission constants
// derived from it, computed once instead of per hosted session per refill.
type gameEntry struct {
	b *predictor.Trained
	// floor is the game's hard satisfaction floor, fpsSafety × 30 FPS over
	// the best frame rate it can reach; peak is its worst-case demand.
	floor float64
	peak  resources.Vector
}

// New builds the policy from the offline training bundles of every game the
// platform may host.
func New(bundles []*predictor.Trained, cfg Config) *CoCG {
	m := make(map[string]*predictor.Trained, len(bundles))
	games := make([]string, 0, len(bundles))
	for _, b := range bundles {
		if _, dup := m[b.Spec.Name]; !dup {
			games = append(games, b.Spec.Name)
		}
		m[b.Spec.Name] = b
	}
	sort.Strings(games)
	c := &CoCG{
		cfg:     cfg,
		games:   games,
		gameIdx: make(map[string]int, len(games)),
		game:    make([]gameEntry, len(games)),
	}
	for i, g := range games {
		b := m[g]
		c.gameIdx[g] = i
		c.game[i] = gameEntry{b: b, floor: fpsSafety * 30 / b.Spec.EffectiveFPS(), peak: b.Profile.PeakDemand()}
	}
	return c
}

// evalScratch owns the reusable buffers admission evaluation needs: the
// forecast scratch a cache refill generates each hosted game's runs with, the
// runs themselves and the cursors it merges them through. A zero value is
// ready to use.
type evalScratch struct {
	fc  predictor.ForecastScratch
	cur []runCursor
	// runs holds every hosted session's forecast as stage runs, back to back
	// in hosted order; runEnd[i] is where hosted i's runs end. They live for
	// one refill: the server total is merged from them, the fleet summary's
	// per-game demand is read off them while they are hot, and the next
	// server's refill overwrites them.
	runs   []predictor.Segment
	runEnd []int

	// The game index (-1: untrained) the candidate spec last resolved to under
	// policy, re-checked by identity so it never changes a result.
	policy *CoCG
	spec   *gamesim.GameSpec
	gi     int
}

// stamp is everything a per-server aggregate is computed from: the server's
// revision and its simulated-second count. A hosted predictor's forecast, and
// a foreign controller's request, move only inside a tick, and membership
// only under a new revision, so the forecast cache, its verdict memo and its
// fleet-load memo all revalidate by comparing one stamp — O(1) however many
// sessions the server hosts.
type stamp struct{ rev, ticks uint64 }

func stampOf(srv *platform.Server) stamp {
	ticks, _ := srv.TickCounts()
	return stamp{rev: srv.Rev(), ticks: ticks}
}

// serverCache is the distributor's per-server aggregate forecast: the hosted
// games' summed demand timeline plus the peak/floor aggregates Algorithm 1's
// guards read, so evaluating a candidate only adds the candidate's own curve
// instead of re-forecasting every hosted session per candidate per server.
//
// Validity is stamped, never pushed: the cache is rebuilt whenever the
// server's stamp disagrees with the one it was filled under. A hosting
// server's stamp moves every simulated second, so in a busy fleet every
// placement frame refills it, and the refill below, not the warm hit, is the
// steady state. The per-session runs the
// total is merged from are not kept: they live in the policy's evalScratch
// for the length of one refill.
type serverCache struct {
	// owner is the policy that filled the cache: memo and gameDemand index its
	// games, and gameOf trusts only its controllers' indices.
	owner *CoCG
	// filled is set by the first refill: a new cache's zero stamp equals a
	// never-ticked idle server's, so the stamp alone cannot tell it is empty.
	filled bool
	stamp  stamp

	// hostedFloor is the max FPS-floor over hosted games (order-independent,
	// so caching it is exact).
	hostedFloor float64
	// hostedPeaks holds each hosted game's worst-case demand in hosted
	// order; the exact peak-depth guard re-sums them per candidate to keep
	// the original summation order.
	hostedPeaks []resources.Vector
	// sumPeaks is the order-insensitive total of hostedPeaks backing the
	// O(1) pre-filter; it may differ from the exact ordered sum by float
	// rounding, which the pre-filter's slack absorbs.
	sumPeaks resources.Vector
	// total is the hosted games' summed demand timeline as runs covering the
	// horizon (see mergeRuns), and peak its per-dimension maximum.
	total []predictor.Segment
	peak  resources.Vector

	// memo caches evaluate's verdict per candidate game index under the
	// current stamp: Algorithm 1 is a pure function of the stamped server
	// state and the candidate's immutable training bundle, so within one
	// stamp repeated pending arrivals of the same game cost O(1) after the
	// first.
	memo []evalMemo

	// Fleet-accounting memo (see accountant.go): the server's headroom and
	// per-game demand contributions under the stamp above, valid when
	// loadValid. loadUsed records that a summary read the memo since the last
	// refill: the next refill then computes it off the runs it has just
	// forecast, and a policy nobody polls never pays for it.
	loadValid, loadUsed bool
	headroom            float64
	gameDemand          []float64
}

// evalMemo is one memoized evaluate verdict.
type evalMemo struct {
	set, ok bool
	meanSat float64
}

// peakSlack bounds the summation-order rounding between sumPeaks and the
// exact ordered peak sum: the pre-filter only skips a server when it exceeds
// the scaled capacity by more than this, so every skip is one the exact
// guard below would also reject.
const peakSlack = 1e-6

// cacheOf returns the forecast cache srv carries, giving it one on first
// sight. A cache filled by another policy instance indexes that instance's
// games, so it is replaced rather than read.
func (c *CoCG) cacheOf(srv *platform.Server) *serverCache {
	cc, _ := srv.PolicyState.(*serverCache)
	if cc == nil || cc.owner != c {
		cc = &serverCache{owner: c}
		srv.PolicyState = cc
	}
	return cc
}

// gameOf resolves a hosted session to its trained game index (-1 when the
// policy has no bundle for it) and its native controller (nil when foreign).
// A controller this policy minted carries its index; one from another CoCG
// instance indexes that instance's games, so it is looked up by name like a
// foreign one.
func (c *CoCG) gameOf(hosted *platform.Hosted) (int, *Controller) {
	ctl, _ := hosted.Controller.(*Controller)
	if ctl != nil && ctl.policy == c {
		return ctl.gi, ctl
	}
	if gi, ok := c.gameIdx[hosted.Spec.Name]; ok {
		return gi, ctl
	}
	return -1, ctl
}

// refresh brings srv's cache up to date, refilling it when the server's stamp
// moved — with the fleet-accounting memo if the last one was read.
func (c *CoCG) refresh(cc *serverCache, srv *platform.Server, es *evalScratch) {
	st := stampOf(srv)
	if cc.filled && cc.stamp == st {
		return
	}
	c.refill(cc, srv, st, es, cc.loadUsed)
}

// refill rebuilds the cache's aggregates under stamp st. It walks srv.Hosted
// once in order and forecasts each session once, into the scratch, so every
// cached float is produced by the exact operation sequence the uncached
// evaluate used. With load set it also fills the fleet-accounting memo (see
// accountant.go) — each session's demand share is read off its runs right
// after they are forecast — and otherwise leaves it invalid.
//
//cocg:hot
func (c *CoCG) refill(cc *serverCache, srv *platform.Server, st stamp, es *evalScratch, load bool) {
	const h = horizonFrames
	cc.stamp, cc.filled = st, true
	if cc.memo == nil {
		cc.allocMemos(len(c.games))
	}
	clear(cc.memo)
	if load {
		clear(cc.gameDemand)
	}
	cc.hostedPeaks = cc.hostedPeaks[:0]
	es.runs = es.runs[:0]
	es.runEnd = es.runEnd[:0]
	cc.hostedFloor = 0
	cc.sumPeaks = resources.Zero
	for _, hosted := range srv.Hosted {
		gi, ctl := c.gameOf(hosted)
		var floor float64
		var peak resources.Vector
		if gi >= 0 {
			floor, peak = c.game[gi].floor, c.game[gi].peak
		} else {
			floor, peak = fpsSafety*30/hosted.Spec.EffectiveFPS(), hosted.Request
		}
		if floor > cc.hostedFloor {
			cc.hostedFloor = floor
		}
		cc.hostedPeaks = append(cc.hostedPeaks, peak)
		cc.sumPeaks = cc.sumPeaks.Add(peak)
		start := len(es.runs)
		if ctl != nil {
			es.runs = ctl.pr.AppendForecastRuns(es.runs, h, &es.fc)
		} else {
			// Foreign controller: assume its game holds its current request
			// forever (the conservative flat timeline).
			es.runs = append(es.runs, predictor.Segment{Frames: h, Demand: hosted.Request})
		}
		es.runEnd = append(es.runEnd, len(es.runs))
		if load && gi >= 0 {
			fh := float64(h)
			var sum float64
			if ctl != nil {
				sum = fracSum(es.runs[start:], srv.Capacity)
			} else {
				// The flat timeline above, summed as one product.
				sum = worstFrac(hosted.Request, srv.Capacity) * fh
			}
			cc.gameDemand[gi] += sum / fh
		}
	}
	if cap(es.cur) < len(es.runEnd) {
		es.growCursors(len(es.runEnd))
	}
	cc.total, cc.peak = mergeRuns(cc.total[:0], es.runs, es.runEnd, h, es.cur)
	cc.loadValid, cc.loadUsed = load, false
	if load {
		// Headroom divides the summed timeline's per-dimension peak once:
		// correctly rounded division by a positive capacity is monotone, so
		// max_t(x_t/c) == max_t(x_t)/c exactly and the bits match
		// ClusterLoadFullScan's divide-every-frame scan.
		cc.headroom = 1 - worstFrac(cc.peak, srv.Capacity)
		if cc.headroom < 0 {
			cc.headroom = 0
		}
	}
}

// allocMemos and growCursors are refill's two allocations, both cold — once
// per cache, once per new high-water session count — and kept out of line so
// hotalloc does not charge them to the steady state.
//
//go:noinline
func (cc *serverCache) allocMemos(games int) {
	cc.memo = make([]evalMemo, games)
	cc.gameDemand = make([]float64, games)
}

//go:noinline
func (es *evalScratch) growCursors(n int) { es.cur = make([]runCursor, n) }

// runCursor is one session's place in mergeRuns: the run it is in, where its
// runs end, and how many of that run's frames are still to be merged (none
// once the session's runs are used up).
type runCursor struct{ at, end, left int }

// mergeRuns sums the sessions' run-length timelines (runs, back to back, the
// i-th session's ending at runEnd[i]) over h frames and appends the sum to dst
// as runs: a merged run ends wherever any session's run ends, and its value
// is the fold from zero, in session order, of the sessions' demands there —
// the additions a dense per-frame accumulation gives every frame of the run,
// so expanding the result reproduces that accumulation bit for bit. It also
// returns the sum's per-dimension peak (from zero, as resources.PeakOf). cur
// is scratch for at least len(runEnd) cursors.
//
//cocg:hot
func mergeRuns(dst, runs []predictor.Segment, runEnd []int, h int, cur []runCursor) ([]predictor.Segment, resources.Vector) {
	cur = cur[:len(runEnd)]
	start := 0
	for i, end := range runEnd {
		cur[i] = runCursor{at: start, end: end}
		if start < end {
			cur[i].left = runs[start].Frames
		}
		start = end
	}
	var peak resources.Vector
	for t := 0; t < h; {
		n := h - t
		var sum resources.Vector
		for i := range cur {
			c := &cur[i]
			if c.left <= 0 {
				continue
			}
			if c.left < n {
				n = c.left
			}
			// In place, component by component: the same additions as an
			// inlined Vector.Add, without its two operand copies.
			d := &runs[c.at].Demand
			for k := range sum {
				sum[k] += d[k]
			}
		}
		dst = append(dst, predictor.Segment{Frames: n, Demand: sum})
		peak = peak.Max(sum)
		for i := range cur {
			c := &cur[i]
			if c.left -= n; c.left == 0 && c.at+1 < c.end {
				c.at++
				c.left = runs[c.at].Frames
			}
		}
		t += n
	}
	return dst, peak
}

// Name implements platform.Policy.
func (c *CoCG) Name() string { return "CoCG" }

// Controller is the per-session agent: a thin adapter from the platform's
// per-second ticks to the predictor's frame loop.
type Controller struct {
	pr *predictor.Predictor
	// policy minted the controller, for game policy.games[gi] (see gameOf).
	policy *CoCG
	gi     int
}

// Name implements platform.Controller.
func (ctl *Controller) Name() string { return "CoCG" }

// Tick implements platform.Controller.
func (ctl *Controller) Tick(util resources.Vector) resources.Vector {
	ctl.pr.Observe(util)
	return ctl.pr.Alloc()
}

// Loading implements platform.Controller.
func (ctl *Controller) Loading() bool { return ctl.pr.Loading() }

// Predictor exposes the wrapped predictor (experiments inspect it).
func (ctl *Controller) Predictor() *predictor.Predictor { return ctl.pr }

// NewController implements platform.Policy.
func (c *CoCG) NewController(spec *gamesim.GameSpec, habit int64) (platform.Controller, error) {
	gi, ok := c.gameIdx[spec.Name]
	if !ok {
		return nil, fmt.Errorf("scheduler: no trained bundle for %s", spec.Name)
	}
	pr, err := c.game[gi].b.NewSessionPredictorForHabit(habit, predictor.Config{})
	if err != nil {
		return nil, err
	}
	return &Controller{pr: pr, policy: c, gi: gi}, nil
}

// Score implements platform.Policy: Algorithm 1. It sums each hosted game's
// predicted demand timeline with the arriving game's typical footprint and
// admits when (a) even the worst predicted overlap leaves every game above
// its minimum playable frame rate, and (b) the mean predicted satisfaction
// over the candidate's lifetime stays high — Section IV-D's operators accept
// brief peak interleaving (which the regulator staggers by stretching
// loading stages) but not sustained oversubscription. Because a short
// game's whole footprint can fit inside a long game's low-consumption
// window, the "distinguish game length" strategy of Section IV-C2 falls out
// of the same test. Among admitting servers the cluster prefers the one whose
// predicted timelines are most complementary to the arrival: the score is the
// predicted mean satisfaction, tilted toward busier servers.
//
//cocg:hot
func (c *CoCG) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	ok, meanSat := c.evaluate(srv, spec, &c.scratch)
	if !ok {
		return 0, false
	}
	// Prefer busier servers at equal satisfaction (consolidation), so new
	// servers stay free for games that genuinely need headroom.
	return meanSat + 0.001*float64(srv.NumHosted()), true
}

// evaluate runs the Algorithm 1 feasibility test and returns the predicted
// mean satisfaction over the candidate's lifetime. It reads the server's
// cached aggregate forecast (refreshed on stamp mismatch), so the
// steady-state cost per candidate is the horizon loop alone — and zero heap
// allocations. Every float it produces is computed by the same operation
// sequence as the original per-call recompute, so admission decisions are
// bit-identical to the uncached implementation.
func (c *CoCG) evaluate(srv *platform.Server, spec *gamesim.GameSpec, es *evalScratch) (bool, float64) {
	gi := c.candidate(spec, es)
	if gi < 0 {
		return false, 0
	}
	cc := c.cacheOf(srv)
	c.refresh(cc, srv, es)

	m := &cc.memo[gi]
	if !m.set {
		m.set = true
		m.ok, m.meanSat = c.verdict(cc, srv, &c.game[gi])
	}
	return m.ok, m.meanSat
}

// candidate returns the arriving game's index, -1 when the policy has no
// bundle for it. A scan offers one spec to every server, so the name is
// looked up only when the scratch last resolved a different spec.
func (c *CoCG) candidate(spec *gamesim.GameSpec, es *evalScratch) int {
	if es.spec != spec || es.policy != c {
		gi, ok := c.gameIdx[spec.Name]
		if !ok {
			gi = -1
		}
		es.policy, es.spec, es.gi = c, spec, gi
	}
	return es.gi
}

// verdict is the uncached Algorithm 1 feasibility test against a refreshed
// server cache.
//
//cocg:hot
func (c *CoCG) verdict(cc *serverCache, srv *platform.Server, g *gameEntry) (bool, float64) {
	// The hard satisfaction floor: the most demanding frame lock among the
	// games that would share the server. A 60 FPS-locked game needs half
	// its demand satisfied to stay above 30 FPS; an uncapped 200 FPS game
	// tolerates far deeper throttling.
	satFloor := g.floor
	if cc.hostedFloor > satFloor {
		satFloor = cc.hostedFloor
	}
	if satFloor > 1 {
		return false, 0
	}

	// Peak-depth guard: prediction staggers peaks, but it cannot guarantee
	// they never meet (Section IV-D). If every co-located game peaked at
	// once, satisfaction would be capacity / Σpeaks; that worst case must
	// stay above the FPS floor, or a drift in long sessions turns into
	// sustained violations the regulator cannot fix (execution stages have
	// no time to steal). This is what leaves some heavy pairs "unable to
	// run on the same machine" (Section V-B2).
	//
	// Pre-filter first: the cached order-insensitive peak total makes the
	// guard O(1) per dimension, skipping provably-infeasible servers before
	// any per-hosted work. The slack keeps the skip sound under summation
	// rounding; anything that passes still faces the exact ordered guard.
	candPeak := g.peak
	scaledCap := srv.Capacity.Scale(2 - satFloor)
	for d := range candPeak {
		if candPeak[d]+cc.sumPeaks[d] > scaledCap[d]+peakSlack {
			return false, 0
		}
	}
	peakSum := candPeak
	for _, peak := range cc.hostedPeaks {
		peakSum = peakSum.Add(peak)
	}
	if !peakSum.Fits(scaledCap) {
		return false, 0
	}

	// The arriving game's expected footprint, from its profiling corpus,
	// overlaid on the cached hosted-demand timeline.
	cand := g.b.TypicalCurve
	limit := srv.Capacity.Sub(resources.Uniform(safetyMargin))
	// The judgment window is the candidate's expected lifetime (capped by
	// the horizon): overlaps after it has finished are irrelevant.
	window := horizonFrames
	if len(cand) > 0 && len(cand) < window {
		window = len(cand)
	}
	satSum, ok := overlaySat(cc.total, cand, &candPeak, limit, window, satFloor, uniformLimit(limit))
	if !ok {
		return false, 0
	}
	meanSat := satSum / float64(window)
	return meanSat >= minMeanSat, meanSat
}

// overlaySat's one-division path names the four dimensions; the guard stops
// compiling when resources.NumDims is not the 4 it unrolls.
var _ [0]struct{} = [resources.NumDims - 4]struct{}{}

// uniformLimit reports whether every dimension has the same positive limit —
// a server whose capacity is the same in every dimension, the fleet's only
// shape today — which is when a frame's satisfaction takes one division.
func uniformLimit(limit resources.Vector) bool {
	return limit[0] > 0 && limit == resources.Uniform(limit[0])
}

// overlaySat walks the first window frames of the hosted timeline total with
// the candidate's curve cand laid over it (candPeak past the curve's end) and
// returns the sum of the frames' predicted satisfaction under proportional
// scaling, or false at the first frame below satFloor. It is run-major, frame
// order within and across runs: every frame's satisfaction is computed and
// summed exactly as a dense walk would.
//
// A frame's satisfaction is the least limit[d]/sum[d] over the dimensions
// whose sum exceeds a positive limit, 1 when none does. With uniform set
// (uniformLimit(limit) must hold) it is taken as L/max_d(sum[d]) instead: a
// correctly rounded quotient is monotone in its divisor, so the least
// quotient is the quotient by the greatest sum, bit for bit, for one division
// in place of up to four.
//
//cocg:hot
func overlaySat(total []predictor.Segment, cand []resources.Vector, candPeak *resources.Vector,
	limit resources.Vector, window int, satFloor float64, uniform bool) (float64, bool) {
	var satSum float64
	t := 0
	for i := 0; t < window; i++ {
		// Both operands are read in place (an inlined Vector.Add still copies
		// both, 64 bytes a frame — docs/PERFORMANCE.md, "Vector arithmetic");
		// past the typical curve the candidate is assumed to hold its peak.
		hosted, end := &total[i].Demand, t+total[i].Frames
		if end > window {
			end = window
		}
		for ; t < end; t++ {
			add := candPeak
			if t < len(cand) {
				add = &cand[t]
			}
			sat := 1.0
			if uniform {
				// worst starts at the limit, so only a sum above it (a NaN
				// never is) can move it.
				worst := limit[0]
				if sum := hosted[0] + add[0]; sum > worst {
					worst = sum
				}
				if sum := hosted[1] + add[1]; sum > worst {
					worst = sum
				}
				if sum := hosted[2] + add[2]; sum > worst {
					worst = sum
				}
				if sum := hosted[3] + add[3]; sum > worst {
					worst = sum
				}
				if worst > limit[0] {
					sat = limit[0] / worst
				}
			} else {
				for d := range hosted {
					if sum := hosted[d] + add[d]; sum > limit[d] && sum > 0 {
						if s := limit[d] / sum; s < sat {
							sat = s
						}
					}
				}
			}
			if sat < satFloor {
				return 0, false
			}
			satSum += sat
		}
	}
	return satSum, true
}

// ClusterLoadFullScan is the independent reference for FleetLoadInto's mean
// headroom: a server's headroom is 1 minus its worst predicted per-dimension
// utilization fraction over the horizon (clamped at 0), found by dividing
// every frame of the summed timeline (each run expanded, frame by frame), and
// the cluster's is the mean over all servers in server order. Each
// timeline is forecast afresh into a throwaway cache, so the servers' own
// caches are neither read nor written. The equivalence tests require the two
// to agree bitwise.
func (c *CoCG) ClusterLoadFullScan(servers []*platform.Server) (float64, bool) {
	var sum float64
	for _, srv := range servers {
		cc := &serverCache{owner: c}
		c.refresh(cc, srv, &c.scratch)
		peak := 0.0
		for _, run := range cc.total {
			for n := run.Frames; n > 0; n-- {
				if f := worstFrac(run.Demand, srv.Capacity); f > peak {
					peak = f
				}
			}
		}
		head := 1 - peak
		if head < 0 {
			head = 0
		}
		sum += head
	}
	return sum / max(1, float64(len(servers))), true
}

// Regulate implements platform.Policy: when the hosted games' combined
// requests head past capacity, the regulator first throttles games that are
// loading — users tolerate a longer loading screen far better than dropped
// frames at a peak (Observation 4) — and only the platform's proportional
// scaling touches executing games if that is not enough.
//
// Loading-steal regulation must see every second and the controllers adapt to
// measured utilization, so no second is skipped. What makes most of them
// cheap is the platform's per-second certificate (Server.tickAt): Regulate
// returns at its first test whenever requests fit under the margin, and a
// second whose realised demands fit their requests takes the fused grant pass.
func (c *CoCG) Regulate(srv *platform.Server) {
	// The common second: requests fit under the margin. For finite totals
	// a-b <= 0 exactly when a <= b, so this decides what testing the clamped
	// excess for zero did, without building it.
	total := srv.RequestTotal()
	if c.cfg.DisableLoadingSteal || total.FitsWithin(srv.Capacity, safetyMargin) {
		return
	}
	limit := srv.Capacity.Sub(resources.Uniform(safetyMargin))
	over := total.Sub(limit).ClampNonNegative()
	for _, hosted := range srv.Hosted {
		if over.IsZero() {
			break
		}
		if !hosted.Controller.Loading() {
			continue
		}
		floor := hosted.Request.Scale(loadingFloor)
		reducible := hosted.Request.Sub(floor).ClampNonNegative()
		cut := reducible.Min(over)
		hosted.Request = hosted.Request.Sub(cut)
		over = over.Sub(cut).ClampNonNegative()
	}
}
