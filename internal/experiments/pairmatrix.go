package experiments

import (
	"fmt"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/simclock"
)

// PairMatrixRow is one two-game combination's outcome under CoCG.
type PairMatrixRow struct {
	A, B string
	// CoLocated reports whether the two games ever actually shared the
	// server.
	CoLocated bool
	// CoResidencySec counts seconds with both games running together.
	CoResidencySec int
	Throughput     float64
	Degraded       float64
}

// PairMatrixResult reproduces Section V-B2's survey: all ten pairings of the
// five games, with CoCG deciding which can share a server. The paper notes
// "there are multiple situations where both games consume a lot of resources
// for a long time and cannot run on the same machine" — those rows show no
// co-residency.
type PairMatrixResult struct {
	Rows []PairMatrixRow
}

// PairMatrix runs every unordered pair under CoCG.
func PairMatrix(ctx *Context) (*PairMatrixResult, error) {
	games := gamesim.AllGames()
	// Pairings run the full experiment window: the heaviest pairs (Genshin,
	// DMC) only complete sessions late, and a shorter window can close with
	// zero finished records for them.
	out := &PairMatrixResult{}
	for i := 0; i < len(games); i++ {
		for j := i + 1; j < len(games); j++ {
			a, b := games[i], games[j]
			row := PairMatrixRow{A: a.Name, B: b.Name}
			c := closedLoop(ctx, 1, ctx.System.Policy(core.PolicyCoCG), ctx.Opt.Seed+int64(i*10+j),
				[][2]*gamesim.GameSpec{{a, b}}, func(c *platform.Cluster) {
					hasA, hasB := false, false
					for _, h := range c.Servers[0].Hosted {
						switch h.Spec.Name {
						case a.Name:
							hasA = true
						case b.Name:
							hasB = true
						}
					}
					if hasA && hasB {
						row.CoResidencySec++
					}
				})
			recs := c.Records()
			row.CoLocated = row.CoResidencySec > 0
			row.Throughput = platform.Throughput(recs, ctx.ref)
			row.Degraded = platform.Summarize(recs).MeanDegraded
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the matrix.
func (r *PairMatrixResult) String() string {
	t := &table{title: "Section V-B2: all ten game pairings under CoCG",
		header: []string{"pair", "co-located", "co-residency", "throughput", "degraded"}}
	for _, row := range r.Rows {
		co := "no"
		if row.CoLocated {
			co = "yes"
		}
		t.add(fmt.Sprintf("%s + %s", shortName(row.A), shortName(row.B)),
			co, simclock.Seconds(row.CoResidencySec).String(),
			fmt.Sprintf("%.0f", row.Throughput), pct(row.Degraded))
	}
	return t.String()
}
