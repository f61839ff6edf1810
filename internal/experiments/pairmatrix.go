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
	horizon := ctx.horizon()
	ref := ctx.refDurations()
	out := &PairMatrixResult{}
	for i := 0; i < len(games); i++ {
		for j := i + 1; j < len(games); j++ {
			a, b := games[i], games[j]
			c := ctx.System.NewCluster(1, core.PolicyCoCG)
			c.StarveLimit = 5 * simclock.Minute
			gen := ctx.System.Generator(ctx.Opt.Seed + int64(i*10+j))
			stream := &workload.PairStream{Gen: gen, A: a, B: b}
			row := PairMatrixRow{A: a.Name, B: b.Name}
			for t := simclock.Seconds(0); t < horizon; t++ {
				stream.Feed(c)
				c.Tick()
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
			}
			recs := c.Records()
			row.CoLocated = row.CoResidencySec > 0
			row.Throughput = platform.Throughput(recs, ref)
			for _, r := range recs {
				row.Degraded += r.Degraded
			}
			if len(recs) > 0 {
				row.Degraded /= float64(len(recs))
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the matrix.
func (r *PairMatrixResult) String() string {
	var b strings.Builder
	b.WriteString("Section V-B2: all ten game pairings under CoCG\n")
	t := &table{header: []string{"pair", "co-located", "co-residency", "throughput", "degraded"}}
	for _, row := range r.Rows {
		co := "no"
		if row.CoLocated {
			co = "yes"
		}
		t.add(fmt.Sprintf("%s + %s", shortName(row.A), shortName(row.B)),
			co, simclock.Seconds(row.CoResidencySec).String(),
			fmt.Sprintf("%.0f", row.Throughput), pct(row.Degraded))
	}
	b.WriteString(t.String())
	return b.String()
}
