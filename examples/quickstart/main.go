// Quickstart: the minimal CoCG journey. Train the offline pipeline for one
// game (profiling corpus -> frame clusters -> stage catalog -> predictors),
// then drive a live session with predictor-guided allocation and compare the
// reserved resources against the always-peak policy.
package main

import (
	"fmt"
	"log"

	"cocg/internal/gamesim"
	"cocg/internal/predictor"
	"cocg/internal/resources"
)

func main() {
	spec := gamesim.GenshinImpact()
	fmt.Printf("## CoCG quickstart on %s (%s game)\n\n", spec.Name, spec.Category)

	// 1. Offline: record a profiling corpus, cluster frames, learn the
	// stage catalog, and train the three prediction models.
	trained, err := predictor.TrainForGame(spec, predictor.TrainConfig{
		Players: 10, SessionsPerPlayer: 4, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d stage types over %d frame clusters; DTC held-out accuracy %.0f%%\n",
		trained.Profile.NumStageTypes(), trained.Profile.Clusters.K(), 100*trained.OfflineAccuracy)
	for _, s := range trained.Profile.Catalog {
		kind := "exec"
		if s.Loading {
			kind = "load"
		}
		fmt.Printf("  stage %d [%s] sustained peak %s\n", s.ID, kind, s.Peak)
	}

	// 2. Online: a returning player starts a session; every 5-second frame
	// the predictor detects the stage, predicts the next one at each
	// loading boundary, and recommends an allocation.
	habit := trained.Habits()[0]
	sess, err := gamesim.NewPlayerSession(spec, int(uint64(habit)%uint64(len(spec.Scripts))), habit, 777)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := trained.NewSessionPredictorForHabit(habit, predictor.Config{})
	if err != nil {
		log.Fatal(err)
	}

	var allocSum resources.Vector
	ticks := 0
	for !sess.Done() {
		demand := sess.Demand()
		if d, ok := pr.Observe(demand); ok && d.PredictedNext >= 0 {
			fmt.Printf("t=%s loading detected; predicted next stage %d; pre-provisioning %s\n",
				sess.Elapsed(), d.PredictedNext, d.Alloc)
		}
		alloc := pr.Alloc()
		allocSum = allocSum.Add(alloc)
		ticks++
		sess.Step(alloc.Load())
	}

	// 3. The outcome: QoS held, resources saved.
	meanAlloc := allocSum.Scale(1 / float64(ticks))
	peak := trained.Profile.PeakDemand()
	fmt.Printf("\nsession finished in %s: average FPS %.1f (%.0f%% of best), degraded %.1f%% of exec time\n",
		sess.Elapsed(), sess.AvgFPS(), 100*sess.FPSRatio(), 100*sess.DegradedFraction())
	fmt.Printf("mean allocation %s\nvs always-peak  %s\n", meanAlloc, peak)
	fmt.Printf("prediction accuracy this session: %.0f%%\n", 100*pr.Accuracy())
}
