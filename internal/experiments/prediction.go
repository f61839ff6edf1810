package experiments

import (
	"fmt"

	"cocg/internal/dataset"
	"cocg/internal/mlmodels"
	"cocg/internal/parallel"
	"cocg/internal/predictor"
)

// Fig15Row is one game's per-algorithm accuracy.
type Fig15Row struct {
	Game     string
	Strategy string
	Accuracy map[string]float64 // by model name
	Samples  int
}

// Fig15Result reproduces Fig. 15: next-stage prediction accuracy of DTC, RF,
// and GBDT per game, trained with the category's sample-selection strategy
// on a 75/25 split.
type Fig15Result struct {
	Rows []Fig15Row
}

// Fig15 evaluates all three algorithms per game. Groups (players, cohorts)
// are split and scored independently; accuracies aggregate over groups
// weighted by test size, matching how the paper trains "a training set for
// each individual player".
func Fig15(ctx *Context) (*Fig15Result, error) {
	games := ctx.System.Games()
	rows := make([]Fig15Row, len(games))
	errs := make([]error, len(games))
	// Games evaluate independently, so they fan out; each game's group loop
	// stays serial, keeping its accuracy accumulation order (and therefore
	// the floating-point result) fixed at every worker count.
	parallel.For(ctx.Opt.Jobs, len(games), func(g int) {
		game := games[g]
		b, _ := ctx.System.Bundle(game)
		strategy := dataset.StrategyFor(b.Spec.Category)
		ex := &dataset.Extractor{P: b.Profile}
		groups := dataset.Select(strategy, ex, b.Corpus)
		row := Fig15Row{
			Game:     game,
			Strategy: strategy.String(),
			Accuracy: map[string]float64{},
		}
		correct := map[string]float64{}
		// One evaluation scratch per game goroutine: every model and group
		// scores through the batch-predict path over the same reused
		// buffers.
		var scratch mlmodels.EvalScratch
		total, err := scoreGroups(ctx.Opt.Seed, groups, b.Profile.NumStageTypes(),
			func(gi int, train, test *mlmodels.Dataset) error {
				models, err := predictor.TrainModels(train, ctx.Opt.Seed+int64(gi))
				if err != nil {
					return err
				}
				for _, m := range models {
					acc, err := scratch.Evaluate(m, test)
					if err != nil {
						return err
					}
					correct[m.Name()] += acc * float64(test.Len())
				}
				return nil
			})
		if err != nil {
			errs[g] = err
			return
		}
		if total > 0 {
			for name, c := range correct {
				row.Accuracy[name] = c / float64(total)
			}
		}
		row.Samples = total
		rows[g] = row
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Fig15Result{Rows: rows}, nil
}

// String renders the accuracy table.
func (r *Fig15Result) String() string {
	t := &table{title: "Fig. 15: next-stage prediction accuracy (75/25 split, category-aware samples)",
		header: []string{"Game", "strategy", "DTC", "RF", "GBDT", "test samples"}}
	for _, row := range r.Rows {
		t.add(row.Game, row.Strategy,
			pct(row.Accuracy["DTC"]), pct(row.Accuracy["RF"]), pct(row.Accuracy["GBDT"]),
			fmt.Sprint(row.Samples))
	}
	t.note = "(paper: DTC above 92% for most games; Genshin Impact harder for DTC/RF, GBDT steadier)"
	return t.String()
}

// CategoryAblationRow compares category-aware training against pooled-global
// training for one game.
type CategoryAblationRow struct {
	Game        string
	CategoryAcc float64
	GlobalAcc   float64
}

// CategoryAblationResult quantifies the value of Fig. 7's sample-selection
// design: per-category strategies versus a single global pool.
type CategoryAblationResult struct {
	Rows []CategoryAblationRow
}

// CategoryAblation evaluates DTC accuracy under both selection regimes.
func CategoryAblation(ctx *Context) (*CategoryAblationResult, error) {
	out := &CategoryAblationResult{}
	for _, game := range ctx.System.Games() {
		b, _ := ctx.System.Bundle(game)
		catAcc, err := strategyAccuracy(ctx, b, dataset.StrategyFor(b.Spec.Category))
		if err != nil {
			return nil, err
		}
		globAcc, err := strategyAccuracy(ctx, b, dataset.Global)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CategoryAblationRow{Game: game, CategoryAcc: catAcc, GlobalAcc: globAcc})
	}
	return out, nil
}

// strategyAccuracy scores the weighted DTC accuracy on b's corpus under
// one strategy.
func strategyAccuracy(ctx *Context, b *predictor.Trained, strategy dataset.Strategy) (float64, error) {
	var correct float64
	var scratch mlmodels.EvalScratch
	groups := dataset.Select(strategy, &dataset.Extractor{P: b.Profile}, b.Corpus)
	total, err := scoreGroups(ctx.Opt.Seed, groups, b.Profile.NumStageTypes(),
		func(_ int, train, test *mlmodels.Dataset) error {
			m := mlmodels.NewDecisionTree(mlmodels.TreeConfig{Seed: ctx.Opt.Seed})
			if err := m.Fit(train); err != nil {
				return err
			}
			acc, err := scratch.Evaluate(m, test)
			if err != nil {
				return err
			}
			correct += acc * float64(test.Len())
			return nil
		})
	if err != nil || total == 0 {
		return 0, err
	}
	return correct / float64(total), nil
}

// String renders the ablation.
func (r *CategoryAblationResult) String() string {
	t := &table{title: "Ablation: category-aware sample selection vs global pooling (DTC accuracy)",
		header: []string{"Game", "category-aware", "global"}}
	for _, row := range r.Rows {
		t.add(row.Game, pct(row.CategoryAcc), pct(row.GlobalAcc))
	}
	return t.String()
}
