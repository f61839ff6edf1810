// Predictor: train the paper's three next-stage prediction algorithms (DTC,
// RF, GBDT) for each game with the category-appropriate sample selection and
// compare their accuracies — the data behind Fig. 15 — then demonstrate the
// dynamic-adjustment plans on a live session.
package main

import (
	"fmt"
	"log"

	"cocg/internal/dataset"
	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/predictor"
	"cocg/internal/profiler"
)

func main() {
	fmt.Println("## Next-stage prediction: DTC vs RF vs GBDT")
	for _, spec := range gamesim.AllGames() {
		corpus, err := gamesim.RecordPlayerCorpus(spec, gamesim.CorpusConfig{
			Players: 12, SessionsPerPlayer: 4, Seed: 2024,
		})
		if err != nil {
			log.Fatal(err)
		}
		prof, err := profiler.Build(corpus, profiler.Config{K: len(spec.Clusters), Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		strategy := dataset.StrategyFor(spec.Category)
		ex := &dataset.Extractor{P: prof}
		groups := dataset.Select(strategy, ex, corpus)

		// Train and score per group (per player / cohort / pooled), then
		// aggregate weighted by test size — the paper's per-category
		// training-set construction.
		acc := map[string]float64{}
		total := 0
		for gi, g := range groups {
			if len(g.Transitions) < 8 {
				continue
			}
			ds, err := dataset.ToDataset(g.Transitions, prof.NumStageTypes())
			if err != nil {
				continue
			}
			train, test := ds.Split(0.75, int64(gi))
			if test.Len() == 0 {
				continue
			}
			models, err := predictor.TrainModels(train, int64(gi))
			if err != nil {
				log.Fatal(err)
			}
			for _, m := range models {
				a, err := mlmodels.Evaluate(m, test)
				if err != nil {
					log.Fatal(err)
				}
				acc[m.Name()] += a * float64(test.Len())
			}
			total += test.Len()
		}
		fmt.Printf("%-15s strategy=%-13s", spec.Name, strategy)
		for _, name := range []string{"DTC", "RF", "GBDT"} {
			v := 0.0
			if total > 0 {
				v = acc[name] / float64(total)
			}
			fmt.Printf("  %s=%5.1f%%", name, 100*v)
		}
		fmt.Printf("  (n=%d)\n", total)
	}

	// Live session: watch the rehearsal callback and model replacement work.
	fmt.Println("\n## Dynamic adjustment on a live Genshin Impact session")
	spec := gamesim.GenshinImpact()
	trained, err := predictor.TrainForGame(spec, predictor.TrainConfig{Seed: 2024})
	if err != nil {
		log.Fatal(err)
	}
	habit := trained.Habits()[0]
	sess, err := gamesim.NewPlayerSession(spec, int(uint64(habit)%3), habit, 555)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := trained.NewSessionPredictorForHabit(habit, predictor.Config{})
	if err != nil {
		log.Fatal(err)
	}
	for !sess.Done() {
		if d, ok := pr.Observe(sess.Demand()); ok {
			switch {
			case d.Callback:
				fmt.Printf("t=%s rehearsal callback (model %s, P=%.2f)\n",
					sess.Elapsed(), pr.ActiveModel(), pr.Accuracy())
			case d.ModelSwitched:
				fmt.Printf("t=%s replacing model -> %s\n", sess.Elapsed(), pr.ActiveModel())
			case d.PredictedNext >= 0:
				fmt.Printf("t=%s predicted next stage %d, redundancy S=(1-%.2f)·M\n",
					sess.Elapsed(), d.PredictedNext, pr.Accuracy())
			}
		}
		alloc := pr.Alloc()
		sess.Step(alloc.Load())
	}
	fmt.Printf("done: FPS %.0f%% of best, prediction accuracy %.0f%%\n",
		100*sess.FPSRatio(), 100*pr.Accuracy())
}
