package cocg_test

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark runs
// the corresponding experiment end-to-end in fast mode (so `go test
// -bench=.` completes in minutes) and reports the headline quantity as a
// custom metric; `go run ./cmd/cocg` runs the same experiments at full
// scale.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cocg/internal/cluster"
	"cocg/internal/core"
	"cocg/internal/experiments"
	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/parallel"
	"cocg/internal/platform"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

// ctxForBench trains the five-game system once for all benchmarks. It also
// turns on allocation reporting, so every experiment benchmark publishes
// allocs/op and B/op alongside ns/op — the quantities the benchmark
// trajectory in BENCH_PR3.json tracks across PRs.
func ctxForBench(b *testing.B) *experiments.Context {
	b.Helper()
	b.ReportAllocs()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(experiments.Options{Seed: 1, Fast: true})
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

func BenchmarkTableI(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.TableIResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableI(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 13 {
			b.Fatalf("Table I rows = %d, want 13", len(r.Rows))
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(float64(len(last.Rows)), "script-rows")
	}
}

func BenchmarkFig2StageTrace(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Stages) < 3 {
			b.Fatal("too few stages in the Fig. 2 trace")
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(float64(len(last.Stages)), "stages")
	}
}

func BenchmarkFig5CSGOClustering(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.ClusteringResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(float64(last.K), "clusters-k")
	}
}

func BenchmarkFig6DMCClustering(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.ClusteringResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(float64(last.K), "clusters-k")
	}
}

func BenchmarkFig9Colocation(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(last.SustainedTotal, "p95-combined-util-%")
		b.ReportMetric(100*last.Summary.MeanDegraded, "degraded-%")
	}
}

func BenchmarkFig10Savings(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(100*last.AvgSaving, "avg-saving-%")
	}
}

func BenchmarkFig11Throughput(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(100*last.Improvement, "cocg-improvement-%")
	}
}

func BenchmarkFig12Overhead(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllCovered {
			b.Fatal("prediction latency exceeded a loading window")
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(float64(len(last.Rows)), "games-covered")
	}
}

func BenchmarkFig13FPS(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(100*last.MeanCoCG, "cocg-fps-%")
		b.ReportMetric(100*last.MeanGAugur, "gaugur-fps-%")
	}
}

func BenchmarkFig14ElbowSweep(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Curves) != 5 {
			b.Fatal("expected five sweep curves")
		}
		last = r
	}
	if last != nil {
		var elbow float64
		for _, c := range last.Curves {
			elbow += float64(c.Elbow)
		}
		b.ReportMetric(elbow/float64(len(last.Curves)), "mean-elbow-k")
	}
}

func BenchmarkFig15Accuracy(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		var dtc float64
		var n int
		for _, row := range last.Rows {
			if v, ok := row.Accuracy["DTC"]; ok && row.Samples > 0 {
				dtc += v
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(100*dtc/float64(n), "mean-dtc-accuracy-%")
		}
	}
}

func BenchmarkAblationCategory(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.CategoryAblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.CategoryAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil && len(last.Rows) > 0 {
		var cat float64
		for _, row := range last.Rows {
			cat += row.CategoryAcc
		}
		b.ReportMetric(100*cat/float64(len(last.Rows)), "mean-category-accuracy-%")
	}
}

func BenchmarkAblationRedundancy(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.RedundancyAblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RedundancyAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil && len(last.Rows) > 0 {
		b.ReportMetric(100*last.Rows[0].FPSRatio, "adaptive-fps-%")
	}
}

func BenchmarkAblationLoadingSteal(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.StealAblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.LoadingStealAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(last.StolenSec, "stolen-sec")
	}
}

func BenchmarkAblationFrameInterval(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.IntervalAblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.FrameIntervalAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(float64(len(last.Rows)), "intervals")
	}
}

func BenchmarkAblationClustering(b *testing.B) {
	ctx := ctxForBench(b)
	var n int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GraphPartitionAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		n = len(rows)
	}
	b.ReportMetric(float64(n), "games-compared")
}

func BenchmarkScaleOut(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.ScaleOutResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ScaleOut(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil && len(last.Rows) > 0 {
		b.ReportMetric(last.Rows[len(last.Rows)-1].PerServer, "per-server-throughput")
	}
}

func BenchmarkOnlineLearning(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.OnlineLearningResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.OnlineLearning(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(100*last.WarmAccuracy, "warm-accuracy-%")
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.PlacementAblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.PlacementAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil && len(last.Rows) > 0 {
		b.ReportMetric(last.Rows[0].Throughput, "best-fit-throughput")
	}
}

func BenchmarkPairMatrix(b *testing.B) {
	ctx := ctxForBench(b)
	var last *experiments.PairMatrixResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.PairMatrix(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		var co int
		for _, row := range last.Rows {
			if row.CoLocated {
				co++
			}
		}
		b.ReportMetric(float64(co), "colocated-pairs")
	}
}

// --- Offline-pass and parallel-vs-serial benchmarks ---
//
// A K-means run and a model fit are serial kernels, timed alone below. The
// fan-outs that remain are over whole units: games in the offline pass and
// experiments in the harness. Each such pair runs the same workload with
// Workers/Jobs pinned to 1 and then unpinned (0 = GOMAXPROCS), so
// `go test -bench 'Workers|Jobs'` shows the speedup the internal/parallel
// pool buys on the current machine. On a single-core box the two legs
// coincide; the determinism tests guarantee the outputs match regardless.

// benchPoints synthesizes a frame cloud large enough that the chunked
// K-means passes dominate.
func benchPoints(n int) []resources.Vector {
	r := rand.New(rand.NewSource(42))
	out := make([]resources.Vector, n)
	centers := []resources.Vector{
		resources.New(12, 8, 6, 25),
		resources.New(45, 55, 38, 52),
		resources.New(85, 88, 74, 79),
	}
	for i := range out {
		c := centers[i%len(centers)]
		var v resources.Vector
		for d := range v {
			v[d] = c[d] + r.NormFloat64()*4
		}
		out[i] = v.Clamp(0, 100)
	}
	return out
}

func BenchmarkKMeans(b *testing.B) {
	pts := benchPoints(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(pts, cluster.Config{K: 6, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTrainSystem(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(gamesim.AllGames(), core.TrainOptions{Seed: 1, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSystem is the whole offline pass exactly as the end-to-end
// benchmark's set-up runs it: every game's corpus recorded, profiled and
// trained, one game at a time.
func BenchmarkTrainSystem(b *testing.B) { benchTrainSystem(b, 1) }

// BenchmarkTrainSystemWorkersMax is the same pass with the games fanned out
// over GOMAXPROCS workers.
func BenchmarkTrainSystemWorkersMax(b *testing.B) { benchTrainSystem(b, 0) }

// benchTrainingSet synthesizes a multiclass dataset with learnable structure
// (the label tracks a noisy linear score over the features).
func benchTrainingSet(b *testing.B, n int) *mlmodels.Dataset {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	samples := make([]mlmodels.Sample, n)
	for i := range samples {
		f := make([]float64, 8)
		score := 0.0
		for d := range f {
			f[d] = r.Float64()
			score += f[d] * float64(d%3)
		}
		samples[i] = mlmodels.Sample{Features: f, Label: int(score+r.Float64()) % 5}
	}
	ds, err := mlmodels.NewDataset(samples)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkForestTrain(b *testing.B) {
	ds := benchTrainingSet(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := mlmodels.NewRandomForest(mlmodels.ForestConfig{NumTrees: 40, Seed: 3})
		if err := f.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBDTTrain(b *testing.B) {
	ds := benchTrainingSet(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mlmodels.NewGBDT(mlmodels.GBDTConfig{NumRounds: 20, Seed: 3})
		if err := g.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHarness renders every figure and table as concurrent jobs over the
// shared fast context — the cmd/cocg fan-out, minus printing.
func benchHarness(b *testing.B, jobs int) {
	ctx := ctxForBench(b)
	runners := []func(*experiments.Context) (fmt.Stringer, error){
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.TableI(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig2(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig5(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig6(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig9(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig10(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig11(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig12(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig13(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig14(c) },
		func(c *experiments.Context) (fmt.Stringer, error) { return experiments.Fig15(c) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := parallel.NewGroup(jobs)
		for _, run := range runners {
			run := run
			g.Go(func() error {
				_, err := run(ctx)
				return err
			})
		}
		if err := g.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHarnessJobs1(b *testing.B)   { benchHarness(b, 1) }
func BenchmarkHarnessJobsMax(b *testing.B) { benchHarness(b, 0) }

// --- Fleet-scale placement benchmarks ---
//
// The distributor (Algorithm 1) runs on every frame boundary over every
// pending arrival × every server; at Capsule-scale fleets (thousands of
// co-located engines) placement, not inference, is the dominant hot path.
// These benchmarks measure one full placement scan of a warm 1k-server
// fleet hosting the five-game mix, at different -jobs settings.

const (
	fleetServers         = 1024
	fleetHostedPerServer = 2
	fleetWarmTicks       = 31
	fleetArrivals        = 8
)

// fleetState is the shared warm fleet: built once, never mutated by the
// placement-scan benchmarks (scoring a candidate does not place it).
type fleetState struct {
	cluster  *platform.Cluster
	arrivals []platform.Arrival
}

var (
	fleetOnce sync.Once
	fleet     *fleetState
	fleetErr  error
)

// fleetForBench builds a deterministic 1k-server fleet under the CoCG
// policy: every server is pre-loaded with sessions from the five-game mix
// (placed directly, bypassing admission, so the fixture does not depend on
// the scheduler under test), then the whole fleet ticks long enough for
// every session's predictor to accumulate real stage history. The candidate
// arrivals are drawn from a Poisson mixed-game stream, the same arrival
// process the scale-out experiment drives.
func fleetForBench(b *testing.B) *fleetState {
	b.Helper()
	ctx := ctxForBench(b)
	fleetOnce.Do(func() {
		c := ctx.System.NewCluster(fleetServers, core.PolicyCoCG)
		gen := ctx.System.Generator(1234)
		mix := gamesim.AllGames()
		for si, srv := range c.Servers {
			for k := 0; k < fleetHostedPerServer; k++ {
				a := gen.Next(mix[(si+k)%len(mix)])
				sess, err := gamesim.NewPlayerSession(a.Spec, a.Script, a.Habit, a.SessionSeed)
				if err != nil {
					fleetErr = err
					return
				}
				ctl, err := c.Policy.NewController(a.Spec, a.Habit)
				if err != nil {
					fleetErr = err
					return
				}
				srv.Add(a.Spec, sess, ctl)
			}
		}
		c.Run(fleetWarmTicks)
		st := &fleetState{cluster: c}
		// Harvest Poisson arrivals one second's draws at a time, all stamped
		// at second 0.
		stream := workload.NewMixStream(gen, mix, 0.5, 4321)
		var arrivals []platform.Arrival
		for len(arrivals) < fleetArrivals {
			arrivals = append(arrivals, stream.Schedule(0, 1)...)
		}
		st.arrivals = arrivals[:fleetArrivals]
		fleet = st
	})
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleet
}

// BenchmarkFleetPlacement1k measures one distributor scan — scoring an arrival
// against every server and picking the argmax — without placing the winner,
// so every iteration sees the same fleet.
func BenchmarkFleetPlacement1k(b *testing.B) {
	st := fleetForBench(b)
	c := st.cluster
	b.ReportAllocs()
	b.ResetTimer()
	picked := 0
	for i := 0; i < b.N; i++ {
		a := st.arrivals[i%len(st.arrivals)]
		if c.PickServer(a) != nil {
			picked++
		}
	}
	b.ReportMetric(float64(fleetServers), "servers")
	b.ReportMetric(float64(picked)/float64(b.N), "placeable-frac")
}

// --- One saturated fleet frame ---
//
// What fleet-cocg (bench/cocgbench) pays per frame, without the end-to-end
// harness: a fleet under the benchmark's own per-server arrival rate, run to
// saturation, then one iteration = one RunEvented(FrameLen) with the frame's
// arrivals plus the coordinator's FleetLoadInto poll. The two sizes carry the
// same per-server load, so their ns/session-second differ only by what a
// larger working set costs: the 128-server fleet's per-frame state sits in a
// 2 MB L2, the 1024-server one's does not (docs/PERFORMANCE.md, "Memory-bound
// at fleet scale").

const (
	fleetFrameRatePer1k = 3.6 // arrivals per virtual second per 1024 servers
	fleetFrameWarm      = 180 // frames (15 virtual minutes) before measuring
)

// fleetFrame is a saturated fleet that advances one frame per call; it keeps
// running across the harness's calls with growing b.N.
type fleetFrame struct {
	c      *platform.Cluster
	stream *workload.MixStream
	fs     platform.FleetSummarizer
	load   platform.FleetLoad
}

var fleetFrames = map[int]*fleetFrame{}

func fleetFrameFor(b *testing.B, servers int) *fleetFrame {
	b.Helper()
	if f := fleetFrames[servers]; f != nil {
		return f
	}
	ctx := ctxForBench(b)
	c := ctx.System.NewCluster(servers, core.PolicyCoCG)
	c.StarveLimit = 5 * simclock.Minute
	f := &fleetFrame{
		c:      c,
		stream: workload.NewMixStream(ctx.System.Generator(8), gamesim.AllGames(), fleetFrameRatePer1k*float64(servers)/1024, 12),
		fs:     c.Policy.(platform.FleetSummarizer),
	}
	for i := 0; i < fleetFrameWarm; i++ {
		f.frame(b)
	}
	if len(c.Pending) == 0 {
		b.Fatalf("%d servers: the queue is empty after %d frames; the fleet is not saturated", servers, fleetFrameWarm)
	}
	fleetFrames[servers] = f
	return f
}

// frame runs one frame and the poll after it, and returns the session-seconds
// the frame simulated (sessions running at its end, FrameLen seconds each).
func (f *fleetFrame) frame(b *testing.B) float64 {
	sched := f.stream.Schedule(f.c.Clock.Now(), simclock.FrameLen)
	if err := f.c.RunEvented(simclock.FrameLen, sched); err != nil {
		b.Fatal(err)
	}
	f.fs.FleetLoadInto(f.c.Servers, &f.load)
	return float64(f.c.RunningSessions()) * float64(simclock.FrameLen)
}

func benchFleetFrame(b *testing.B, servers int) {
	f := fleetFrameFor(b, servers)
	b.ReportAllocs()
	b.ResetTimer()
	var sessionSeconds float64
	for i := 0; i < b.N; i++ {
		sessionSeconds += f.frame(b)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sessionSeconds, "ns/session-second")
	b.ReportMetric(float64(servers), "servers")
}

func BenchmarkFleetFrame128(b *testing.B) { benchFleetFrame(b, 128) }
func BenchmarkFleetFrame1k(b *testing.B)  { benchFleetFrame(b, 1024) }
