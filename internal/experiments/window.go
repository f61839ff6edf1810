package experiments

import (
	"cocg/internal/dataset"
	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/platform"
	"cocg/internal/predictor"
	"cocg/internal/resources"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

// closedLoop runs the closed-loop co-location window: a cluster of servers
// under pol, and one PairStream per pair, all drawing from one generator
// seeded seed. Each second of the horizon the streams feed in order, the
// cluster ticks, and then each, if non-nil, sees the cluster.
func closedLoop(ctx *Context, servers int, pol platform.Policy, seed int64,
	pairs [][2]*gamesim.GameSpec, each func(*platform.Cluster)) *platform.Cluster {

	c := platform.NewCluster(servers, pol)
	gen := ctx.System.Generator(seed)
	streams := make([]*workload.PairStream, len(pairs))
	for i, p := range pairs {
		streams[i] = &workload.PairStream{Gen: gen, A: p[0], B: p[1]}
	}
	horizon := ctx.horizon()
	for t := simclock.Seconds(0); t < horizon; t++ {
		for _, s := range streams {
			s.Feed(c)
		}
		c.Tick()
		if each != nil {
			each(c)
		}
	}
	return c
}

// mixWindow runs the open-loop window: a cluster of servers under pol,
// with the five-game mix arriving at rate per second over half the
// horizon, scheduled up front and run evented. It returns the finished
// sessions' records.
func mixWindow(ctx *Context, servers int, pol platform.Policy, genSeed int64,
	rate float64, streamSeed int64) ([]platform.Record, error) {

	c := platform.NewCluster(servers, pol)
	horizon := ctx.horizon() / 2
	stream := workload.NewMixStream(ctx.System.Generator(genSeed), gamesim.AllGames(), rate, streamSeed)
	if err := c.RunEvented(horizon, stream.Schedule(0, horizon)); err != nil {
		return nil, err
	}
	return c.Records(), nil
}

// soloSession plays the player with habit's s-th session of b's game, alone
// on its own supply and allocated by its own predictor under cfg. A mobile
// player replays the script their habit picks; other games rotate scripts
// by s. Each second, for at most four hours, the predictor observes the
// demand and the session steps under the predictor's allocation. each, if
// non-nil, sees the second's demand, the predictor's decision (ok when the
// second completed a frame) and that allocation.
func soloSession(b *predictor.Trained, s int, habit, seed int64, cfg predictor.Config,
	each func(demand resources.Vector, d predictor.Decision, ok bool, alloc resources.Vector),
) (*gamesim.Session, *predictor.Predictor, error) {

	script := s % len(b.Spec.Scripts)
	if b.Spec.Category == gamesim.Mobile {
		script = int(uint64(habit) % uint64(len(b.Spec.Scripts)))
	}
	sess, err := gamesim.NewPlayerSession(b.Spec, script, habit, seed)
	if err != nil {
		return nil, nil, err
	}
	pr, err := b.NewSessionPredictorForHabit(habit, cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 4*3600 && !sess.Done(); i++ {
		demand := sess.Demand()
		d, ok := pr.Observe(demand)
		alloc := pr.Alloc()
		if each != nil {
			each(demand.Vector(), d, ok, alloc)
		}
		sess.Step(alloc.Load())
	}
	return sess, pr, nil
}

// minGroup is the smallest per-group sample count worth training on: below
// eight transitions the 75/25 split leaves a test set too small to score
// meaningfully, so such groups are skipped in both fast and full mode.
const minGroup = 8

// scoreGroups splits each group of at least minGroup transitions 75/25,
// seeded by seed plus the group's index, and hands the two halves to score,
// in group order. A group whose dataset cannot be built or whose test half
// is empty is skipped. It returns the number of test samples scored.
func scoreGroups(seed int64, groups []dataset.Group, numClasses int,
	score func(gi int, train, test *mlmodels.Dataset) error) (int, error) {

	total := 0
	for gi, g := range groups {
		if len(g.Transitions) < minGroup {
			continue
		}
		ds, err := dataset.ToDataset(g.Transitions, numClasses)
		if err != nil {
			continue
		}
		train, test := ds.Split(0.75, seed+int64(gi))
		if test.Len() == 0 {
			continue
		}
		if err := score(gi, train, test); err != nil {
			return 0, err
		}
		total += test.Len()
	}
	return total, nil
}
