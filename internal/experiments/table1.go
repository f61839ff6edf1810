package experiments

import (
	"fmt"

	"cocg/internal/gamesim"
	"cocg/internal/profiler"
)

// TableIRow is one script row of Table I.
type TableIRow struct {
	Game        string
	Script      string
	Description string
	// SpecTypes is the ground-truth stage-type count of the script;
	// ProfiledTypes is what the frame-grained profiler discovers from that
	// script's traces alone.
	SpecTypes     int
	ProfiledTypes int
}

// TableIResult reproduces Table I: the evaluated workloads and their
// per-script stage-type counts.
type TableIResult struct {
	Rows []TableIRow
}

// TableI profiles every script of every game in isolation and counts the
// discovered stage types, reproducing the "# of stage type" column.
func TableI(ctx *Context) (*TableIResult, error) {
	out := &TableIResult{}
	players := scaled(ctx.Opt.Fast, 4, 2)
	for _, spec := range gamesim.AllGames() {
		for si, script := range spec.Scripts {
			var traces []*gamesim.Trace
			for p := 0; p < players; p++ {
				tr, err := gamesim.Record(spec, si, ctx.Opt.Seed+int64(1000*si+p))
				if err != nil {
					return nil, err
				}
				traces = append(traces, tr)
			}
			prof, err := profiler.Build(traces, profiler.Config{
				K: len(spec.Clusters), Seed: ctx.Opt.Seed,
			})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, TableIRow{
				Game:          spec.Name,
				Script:        script.Name,
				Description:   script.Desc,
				SpecTypes:     spec.ScriptStageTypeCount(si),
				ProfiledTypes: prof.NumStageTypes(),
			})
		}
	}
	return out, nil
}

// String renders the table.
func (r *TableIResult) String() string {
	t := &table{title: "Table I: Evaluated workloads and stage types per script",
		header: []string{"Game", "Script", "Description", "#types(paper)", "#types(profiled)"}}
	for _, row := range r.Rows {
		t.add(row.Game, row.Script, row.Description,
			fmt.Sprint(row.SpecTypes), fmt.Sprint(row.ProfiledTypes))
	}
	return t.String()
}
