package experiments

import (
	"fmt"
	"strings"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
	"cocg/internal/workload"
)

// firstFit places first fit under the CoCG policy: it admits exactly where
// CoCG does but scores every admitting server 0, so the cluster takes the
// first. Control and regulation are unchanged.
type firstFit struct {
	platform.Policy
}

// Score implements platform.Policy.
func (f *firstFit) Score(srv *platform.Server, spec *gamesim.GameSpec, habit int64) (float64, bool) {
	_, ok := f.Policy.Score(srv, spec, habit)
	return 0, ok
}

// PlacementRow is one placement strategy's outcome.
type PlacementRow struct {
	Strategy   string
	Throughput float64
	Sessions   int
	Degraded   float64
}

// PlacementAblationResult compares best-fit (score by predicted
// complementarity) against first-fit placement over a multi-server cluster —
// the distributor design choice in Algorithm 1's surrounding text.
type PlacementAblationResult struct {
	Rows []PlacementRow
}

// PlacementAblation runs the same mixed stream under both strategies.
func PlacementAblation(ctx *Context) (*PlacementAblationResult, error) {
	out := &PlacementAblationResult{}
	horizon := ctx.horizon() / 2
	ref := ctx.refDurations()
	for _, strat := range []string{"best-fit", "first-fit"} {
		pol := ctx.System.Policy(core.PolicyCoCG)
		if strat == "first-fit" {
			pol = &firstFit{Policy: pol}
		}
		c := platform.NewCluster(3, pol)
		c.StarveLimit = 5 * simclock.Minute
		gen := ctx.System.Generator(ctx.Opt.Seed + 23)
		stream := workload.NewMixStream(gen, gamesim.AllGames(), 0.025, ctx.Opt.Seed+29)
		if err := c.RunEvented(horizon, stream.Schedule(0, horizon)); err != nil {
			return nil, err
		}
		recs := c.Records()
		row := PlacementRow{Strategy: strat, Sessions: len(recs)}
		row.Throughput = platform.Throughput(recs, ref)
		for _, r := range recs {
			row.Degraded += r.Degraded
		}
		if len(recs) > 0 {
			row.Degraded /= float64(len(recs))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the comparison.
func (r *PlacementAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: distributor placement — best-fit (complementarity score) vs first-fit\n")
	t := &table{header: []string{"strategy", "throughput", "sessions", "degraded"}}
	for _, row := range r.Rows {
		t.add(row.Strategy, fmt.Sprintf("%.0f", row.Throughput), fmt.Sprint(row.Sessions), pct(row.Degraded))
	}
	b.WriteString(t.String())
	return b.String()
}
