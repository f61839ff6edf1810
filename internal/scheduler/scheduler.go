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
// A CoCG instance scores only its own cluster: every session on a server it
// scores or summarizes carries a *Controller this instance minted (so of a
// game it was trained on), and a refill forecasts each one through that
// controller's predictor and reads its game off the controller's index.
// Servers shared with another instance, or hosting another policy's
// controllers, are outside the contract.
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
	// and the controllers use these indices, and FleetLoad.Games aliases the
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

	// The game index (-1: untrained) the candidate spec last resolved to,
	// re-checked by identity so it never changes a result.
	spec *gamesim.GameSpec
	gi   int
}

// serverCache is the distributor's per-server aggregate forecast: the hosted
// games' summed demand timeline plus the peak/floor aggregates Algorithm 1's
// guards read, so evaluating a candidate only adds the candidate's own curve
// instead of re-forecasting every hosted session per candidate per server.
//
// Validity is stamped, never pushed, under two keys. The membership
// aggregates (hostedFloor, hostedPeaks) depend only on which games the server
// hosts, so they are retaken only when the server or its Stamp's Rev moved
// (members). The forecast aggregates (total, peak and the fleet-load columns)
// are rebuilt whenever the server's full Stamp disagrees with the one they
// were filled under (stamp). A new cache's zero stamps match no server. Hosted
// state moves only under a new stamp, so either check is O(1) however many
// sessions the server hosts. The verdicts read off the cache are kept by the
// cluster's scoreboard, under the same stamp. A hosting server's stamp moves
// every simulated second, so in a busy fleet every placement frame that gets
// past the guards refills it, and the refill below, not the warm hit, is the
// steady state; a candidate the guards reject never refills (evaluate). The
// per-session runs the total is merged from are not kept: they live in the
// policy's evalScratch for the length of one refill.
type serverCache struct {
	stamp platform.Stamp
	// members is the stamp the membership aggregates were taken under; only
	// its server and Rev are compared (retakeMembers).
	members platform.Stamp

	// hostedFloor is the max FPS-floor over hosted games (order-independent,
	// so caching it is exact).
	hostedFloor float64
	// hostedPeaks holds each hosted game's worst-case demand in hosted
	// order; the peak-depth guard re-sums them per candidate to keep the
	// original summation order.
	hostedPeaks []resources.Vector
	// total is the hosted games' summed demand timeline as runs covering the
	// horizon (see mergeRuns), and peak its per-dimension maximum.
	total []predictor.Segment
	peak  resources.V4

	// Fleet accounting (see accountant.go): the server's predicted headroom
	// and per-game demand contributions, taken by every refill off the runs
	// it has just forecast.
	headroom   float64
	gameDemand []float64
}

// cacheOf returns the forecast cache srv carries, giving it one on first
// sight. Algorithm 1 holds a machine to one limit on every resource, so it
// refuses a server whose capacity differs across dimensions or does not
// exceed the safety margin.
func (c *CoCG) cacheOf(srv *platform.Server) *serverCache {
	cc, _ := srv.PolicyState.(*serverCache)
	if cc == nil {
		if l := srv.Capacity[0]; !(l > safetyMargin) || srv.Capacity != resources.Uniform(l) {
			panic(fmt.Sprintf("scheduler: server %d has capacity %v; CoCG needs one capacity above %d in every dimension", srv.ID, srv.Capacity, safetyMargin))
		}
		cc = c.newCache()
		srv.PolicyState = cc
	}
	return cc
}

// newCache returns an empty forecast cache with its fleet-load columns.
func (c *CoCG) newCache() *serverCache {
	return &serverCache{gameDemand: make([]float64, len(c.games))}
}

// refresh brings srv's forecast aggregates up to date, refilling them when
// the server's stamp moved.
func (c *CoCG) refresh(cc *serverCache, srv *platform.Server) {
	if st := srv.Stamp(); cc.stamp != st {
		c.refill(cc, srv, st)
	}
}

// refill rebuilds the cache's forecast aggregates under stamp st. It walks
// srv.Hosted once in order and forecasts each session once, into the
// scratch, so every cached float is produced by the exact operation sequence
// the uncached evaluate used. Each session's demand share (see accountant.go)
// is read off its runs right after they are forecast, and the headroom off
// the merged peak.
//
//cocg:hot
func (c *CoCG) refill(cc *serverCache, srv *platform.Server, st platform.Stamp) {
	const h = horizonFrames
	es := &c.scratch
	cc.stamp = st
	clear(cc.gameDemand)
	es.runs = es.runs[:0]
	es.runEnd = es.runEnd[:0]
	for _, hosted := range srv.Hosted {
		ctl := hosted.Controller.(*Controller)
		start := len(es.runs)
		es.runs = ctl.pr.AppendForecastRuns(es.runs, h, &es.fc)
		es.runEnd = append(es.runEnd, len(es.runs))
		cc.gameDemand[ctl.gi] += fracSum(es.runs[start:], srv.Capacity[0]) / h
	}
	if cap(es.cur) < len(es.runEnd) {
		es.growCursors(len(es.runEnd))
	}
	cc.total, cc.peak = mergeRuns(cc.total[:0], es.runs, es.runEnd, h, es.cur)
	// Headroom divides the summed timeline's peak once: correctly rounded
	// division by a positive capacity is monotone, so max_t(x_t/c) ==
	// max_t(x_t)/c exactly and the bits match ClusterLoadFullScan's
	// divide-every-frame scan.
	cc.headroom = max(0, 1-worstFrac(cc.peak, srv.Capacity[0]))
}

// retakeMembers brings the cache's membership aggregates up to date with
// srv, whose current stamp is st: they are retaken from srv.Hosted, in
// order, exactly when the server or its Rev differs from the ones they were
// taken under. A tick moves neither, so a server whose membership stands
// keeps them however often its forecast is refilled.
//
//cocg:hot
func (c *CoCG) retakeMembers(cc *serverCache, srv *platform.Server, st platform.Stamp) {
	seen := cc.members
	seen.Ticks = st.Ticks
	if seen == st {
		return
	}
	cc.members = st
	n := len(srv.Hosted)
	if cap(cc.hostedPeaks) < n {
		cc.growPeaks(n)
	}
	cc.hostedPeaks = cc.hostedPeaks[:n]
	cc.hostedFloor = 0
	for i, hosted := range srv.Hosted {
		g := &c.game[hosted.Controller.(*Controller).gi]
		if g.floor > cc.hostedFloor {
			cc.hostedFloor = g.floor
		}
		cc.hostedPeaks[i] = g.peak
	}
}

// growPeaks is retakeMembers' one allocation, cold — once per new high-water
// session count on the server — and kept out of line so hotalloc does not
// charge it to the steady state.
//
//go:noinline
func (cc *serverCache) growPeaks(n int) { cc.hostedPeaks = make([]resources.Vector, n) }

// growCursors is refill's one allocation, cold — once per new high-water
// session count — and kept out of line so hotalloc does not charge it to the
// steady state.
//
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
// is scratch for at least len(runEnd) cursors. The sum is a V4, stored into
// the appended run.
//
//cocg:hot
func mergeRuns(dst, runs []predictor.Segment, runEnd []int, h int, cur []runCursor) ([]predictor.Segment, resources.V4) {
	cur = cur[:len(runEnd)]
	start := 0
	for i, end := range runEnd {
		cur[i] = runCursor{at: start, end: end}
		if start < end {
			cur[i].left = runs[start].Frames
		}
		start = end
	}
	var peak resources.V4
	for t := 0; t < h; {
		n := h - t
		var sum resources.V4
		for i := range cur {
			c := &cur[i]
			if c.left <= 0 {
				continue
			}
			if c.left < n {
				n = c.left
			}
			sum = sum.Add(runs[c.at].Demand.Load())
		}
		dst = append(dst, predictor.Segment{Frames: n})
		dst[len(dst)-1].Demand.Store(sum)
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

// Controller is the per-session agent: a thin adapter from the platform's
// per-second ticks to the predictor's frame loop.
type Controller struct {
	pr *predictor.Predictor
	// gi indexes the minting policy's games (see refill).
	gi int
}

// Tick implements platform.Controller.
//
//cocg:hot
func (ctl *Controller) Tick(util resources.Vector) resources.Vector {
	ctl.pr.Observe(util.Load())
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
	return &Controller{pr: pr, gi: gi}, nil
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
	ok, meanSat := c.evaluate(srv, spec)
	if !ok {
		return 0, false
	}
	// Prefer busier servers at equal satisfaction (consolidation), so new
	// servers stay free for games that genuinely need headroom.
	return meanSat + 0.001*float64(srv.NumHosted()), true
}

// evaluate runs the Algorithm 1 feasibility test and returns the predicted
// mean satisfaction over the candidate's lifetime. The forecast-free guards
// run first, off the membership aggregates, so a server they reject is never
// re-forecast; only a candidate that passes them refreshes the server's
// cached aggregate forecast (on stamp mismatch) and overlays it. The
// steady-state cost per candidate is the guards plus, past them, the horizon
// loop — and zero heap allocations. Every float it produces is computed by
// the same operation sequence as the original per-call recompute, and
// neither half reads what the other caches, so admission decisions are
// bit-identical to the uncached implementation.
func (c *CoCG) evaluate(srv *platform.Server, spec *gamesim.GameSpec) (bool, float64) {
	gi := c.candidate(spec)
	if gi < 0 {
		return false, 0
	}
	g := &c.game[gi]
	cc := c.cacheOf(srv)
	c.retakeMembers(cc, srv, srv.Stamp())
	satFloor, ok := guard(cc, srv, g)
	if !ok {
		return false, 0
	}
	c.refresh(cc, srv)
	return verdict(cc, srv, g, satFloor)
}

// candidate returns the arriving game's index, -1 when the policy has no
// bundle for it. A scan offers one spec to every server, so the name is
// looked up only when the scratch last resolved a different spec.
func (c *CoCG) candidate(spec *gamesim.GameSpec) int {
	es := &c.scratch
	if es.spec != spec {
		gi, ok := c.gameIdx[spec.Name]
		if !ok {
			gi = -1
		}
		es.spec, es.gi = spec, gi
	}
	return es.gi
}

// guard is Algorithm 1's forecast-free half: the FPS floor and the
// peak-depth guard, read off the cache's membership aggregates alone. It
// returns the satisfaction floor the forecast half holds every frame to.
//
//cocg:hot
func guard(cc *serverCache, srv *platform.Server, g *gameEntry) (float64, bool) {
	// The hard satisfaction floor: the most demanding frame lock among the
	// games that would share the server. A 60 FPS-locked game needs half
	// its demand satisfied to stay above 30 FPS; an uncapped 200 FPS game
	// tolerates far deeper throttling.
	satFloor := g.floor
	if cc.hostedFloor > satFloor {
		satFloor = cc.hostedFloor
	}
	if satFloor > 1 {
		return 0, false
	}

	// Peak-depth guard: prediction staggers peaks, but it cannot guarantee
	// they never meet (Section IV-D). If every co-located game peaked at
	// once, satisfaction would be capacity / Σpeaks; that worst case must
	// stay above the FPS floor, or a drift in long sessions turns into
	// sustained violations the regulator cannot fix (execution stages have
	// no time to steal). This is what leaves some heavy pairs "unable to
	// run on the same machine" (Section V-B2).
	scaledCap := srv.Capacity.Load().Scale(2 - satFloor)
	peakSum := g.peak.Load()
	for i := range cc.hostedPeaks {
		peakSum = peakSum.Add(cc.hostedPeaks[i].Load())
	}
	if !peakSum.Fits(scaledCap) {
		return 0, false
	}
	return satFloor, true
}

// verdict is Algorithm 1's forecast half, run once guard has passed with
// satFloor: the candidate's curve over the refreshed cached timeline, then
// the mean-satisfaction test.
//
//cocg:hot
func verdict(cc *serverCache, srv *platform.Server, g *gameEntry, satFloor float64) (bool, float64) {
	// The arriving game's expected footprint, from its profiling corpus,
	// overlaid on the cached hosted-demand timeline.
	cand := g.b.TypicalCurve
	limit := srv.Capacity[0] - safetyMargin
	// The judgment window is the candidate's expected lifetime (capped by
	// the horizon): overlaps after it has finished are irrelevant.
	window := horizonFrames
	if len(cand) > 0 && len(cand) < window {
		window = len(cand)
	}
	satSum, ok := overlaySat(cc.total, cand, &g.peak, limit, window, satFloor)
	if !ok {
		return false, 0
	}
	meanSat := satSum / float64(window)
	return meanSat >= minMeanSat, meanSat
}

// overlaySat names the four dimensions; the guard stops compiling when
// resources.NumDims is not the 4 it unrolls.
var _ [0]struct{} = [resources.NumDims - 4]struct{}{}

// overlaySat walks the first window frames of the hosted timeline total with
// the candidate's curve cand laid over it (candPeak past the curve's end) and
// returns the sum of the frames' predicted satisfaction under proportional
// scaling, or false at the first frame below satFloor. It is run-major, frame
// order within and across runs: every frame's satisfaction is computed and
// summed exactly as a dense walk would.
//
// A frame's satisfaction is the least limit/sum[d] over the dimensions whose
// sum exceeds the limit, which is positive (cacheOf), 1 when none does. It is
// taken as limit/max_d(sum[d]): a correctly rounded quotient is monotone in
// its divisor, so the least quotient is the quotient by the greatest sum, bit
// for bit, for one division in place of up to four.
//
//cocg:hot
func overlaySat(total []predictor.Segment, cand []resources.Vector, candPeak *resources.Vector,
	limit float64, window int, satFloor float64) (float64, bool) {
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
			// worst starts at the limit, so only a sum above it (a NaN never
			// is) can move it.
			worst := limit
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
			if worst > limit {
				sat = limit / worst
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
func (c *CoCG) ClusterLoadFullScan(servers []*platform.Server) float64 {
	var sum float64
	for _, srv := range servers {
		cc := c.newCache()
		c.refresh(cc, srv)
		peak := 0.0
		for i := range cc.total {
			for n := cc.total[i].Frames; n > 0; n-- {
				if f := worstFrac(cc.total[i].Demand.Load(), srv.Capacity[0]); f > peak {
					peak = f
				}
			}
		}
		sum += max(0, 1-peak)
	}
	return sum / max(1, float64(len(servers)))
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
//
//cocg:hot
func (c *CoCG) Regulate(srv *platform.Server) {
	// The common second: requests fit under the margin. For finite totals
	// a-b <= 0 exactly when a <= b, so this decides what testing the clamped
	// excess for zero did, without building it.
	total, capacity := srv.RequestTotal(), srv.Capacity.Load()
	if c.cfg.DisableLoadingSteal || total.FitsWithin(capacity, safetyMargin) {
		return
	}
	limit := capacity.Sub(resources.V4{C0: safetyMargin, C1: safetyMargin, C2: safetyMargin, C3: safetyMargin})
	over := total.Sub(limit).ClampNonNegative()
	for _, hosted := range srv.Hosted {
		if over.IsZero() {
			break
		}
		if !hosted.Controller.Loading() {
			continue
		}
		req := hosted.Request.Load()
		floor := req.Scale(loadingFloor)
		reducible := req.Sub(floor).ClampNonNegative()
		cut := reducible.Min(over)
		hosted.Request.Store(req.Sub(cut))
		over = over.Sub(cut).ClampNonNegative()
	}
}
