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
	horizon := ctx.horizon() / 2
	baseRate := 0.008 // arrivals/sec per server: near saturation
	out := &ScaleOutResult{}
	ref := ctx.refDurations()
	for _, n := range sizes {
		c := ctx.System.NewCluster(n, core.PolicyCoCG)
		c.StarveLimit = 5 * simclock.Minute
		gen := ctx.System.Generator(ctx.Opt.Seed + int64(n))
		stream := workload.NewMixStream(gen, gamesim.AllGames(), baseRate*float64(n), ctx.Opt.Seed+int64(10*n))
		if err := c.RunEvented(horizon, stream.Schedule(0, horizon)); err != nil {
			return nil, err
		}
		recs := c.Records()
		row := ScaleOutRow{Servers: n, Sessions: len(recs)}
		row.Throughput = platform.Throughput(recs, ref)
		row.PerServer = row.Throughput / float64(n)
		var fps, p5, deg float64
		for _, r := range recs {
			fps += r.FPSRatio
			p5 += r.P5FPS
			deg += r.Degraded
		}
		if len(recs) > 0 {
			k := float64(len(recs))
			row.MeanFPS = fps / k
			row.MeanP5FPS = p5 / k
			row.Degraded = deg / k
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the scale-out table.
func (r *ScaleOutResult) String() string {
	var b strings.Builder
	b.WriteString("Scale-out (Section IV-D): CoCG over growing clusters, load proportional to size\n")
	t := &table{header: []string{"servers", "throughput", "per-server", "sessions", "FPS ratio", "p5 FPS", "degraded"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.Servers), fmt.Sprintf("%.0f", row.Throughput),
			fmt.Sprintf("%.0f", row.PerServer), fmt.Sprint(row.Sessions),
			pct(row.MeanFPS), f1(row.MeanP5FPS), pct(row.Degraded))
	}
	b.WriteString(t.String())
	return b.String()
}
