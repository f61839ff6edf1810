package experiments

import (
	"fmt"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
)

// firstFit places first fit under the CoCG policy: it admits exactly where
// CoCG does but scores every admitting server 0, so the cluster takes the
// first. Control and regulation are unchanged.
type firstFit struct {
	platform.Policy
}

// Score implements platform.Policy.
func (f *firstFit) Score(srv *platform.Server, spec *gamesim.GameSpec) (float64, bool) {
	_, ok := f.Policy.Score(srv, spec)
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
	for _, strat := range []string{"best-fit", "first-fit"} {
		pol := ctx.System.Policy(core.PolicyCoCG)
		if strat == "first-fit" {
			pol = &firstFit{Policy: pol}
		}
		recs, err := mixWindow(ctx, 3, pol, ctx.Opt.Seed+23, 0.025, ctx.Opt.Seed+29)
		if err != nil {
			return nil, err
		}
		row := PlacementRow{Strategy: strat, Sessions: len(recs), Degraded: platform.Summarize(recs).MeanDegraded}
		row.Throughput = platform.Throughput(recs, ctx.ref)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the comparison.
func (r *PlacementAblationResult) String() string {
	t := &table{title: "Ablation: distributor placement — best-fit (complementarity score) vs first-fit",
		header: []string{"strategy", "throughput", "sessions", "degraded"}}
	for _, row := range r.Rows {
		t.add(row.Strategy, fmt.Sprintf("%.0f", row.Throughput), fmt.Sprint(row.Sessions), pct(row.Degraded))
	}
	return t.String()
}
