package experiments

import (
	"fmt"

	"cocg/internal/core"
	"cocg/internal/platform"
)

// ScaleOutRow is one cluster size's outcome.
type ScaleOutRow struct {
	Servers    int
	Throughput float64
	Sessions   int
	MeanFPS    float64
	MeanP5FPS  float64
	Degraded   float64
	// PerServer is throughput normalized by server count: flat means the
	// approach scales.
	PerServer float64
}

// ScaleOutResult backs Section IV-D's discussion: the stage structure is
// platform-independent, so the same trained system drives ever larger
// clusters with flat per-server efficiency.
type ScaleOutResult struct {
	Rows []ScaleOutRow
}

// ScaleOut runs the mixed five-game stream over growing clusters under CoCG,
// with the arrival rate proportional to capacity.
func ScaleOut(ctx *Context) (*ScaleOutResult, error) {
	sizes := []int{1, 2, 4, 8}
	baseRate := 0.008 // arrivals/sec per server: near saturation
	out := &ScaleOutResult{}
	for _, n := range sizes {
		recs, err := mixWindow(ctx, n, ctx.System.Policy(core.PolicyCoCG), ctx.Opt.Seed+int64(n),
			baseRate*float64(n), ctx.Opt.Seed+int64(10*n))
		if err != nil {
			return nil, err
		}
		q := platform.Summarize(recs)
		row := ScaleOutRow{Servers: n, Sessions: len(recs), MeanFPS: q.MeanFPSRatio, MeanP5FPS: q.MeanP5FPS, Degraded: q.MeanDegraded}
		row.Throughput = platform.Throughput(recs, ctx.ref)
		row.PerServer = row.Throughput / float64(n)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the scale-out table.
func (r *ScaleOutResult) String() string {
	t := &table{title: "Scale-out (Section IV-D): CoCG over growing clusters, load proportional to size",
		header: []string{"servers", "throughput", "per-server", "sessions", "FPS ratio", "p5 FPS", "degraded"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.Servers), fmt.Sprintf("%.0f", row.Throughput),
			fmt.Sprintf("%.0f", row.PerServer), fmt.Sprint(row.Sessions),
			pct(row.MeanFPS), f1(row.MeanP5FPS), pct(row.Degraded))
	}
	return t.String()
}
