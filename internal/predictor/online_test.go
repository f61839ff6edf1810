package predictor

import (
	"testing"

	"cocg/internal/gamesim"
)

func TestOnlineLearnerColdStartGraduates(t *testing.T) {
	tr := trainedFor(t, gamesim.GenshinImpact())
	learner := NewOnlineLearner(tr, 8, 71)

	// A brand-new player not in the training corpus.
	coldHabit := int64(909_090_909)
	if _, ok := tr.HabitModels[coldHabit]; ok {
		t.Fatal("cold habit already has models")
	}
	script := int(uint64(coldHabit) % uint64(len(tr.Spec.Scripts)))

	sessions := 0
	for s := int64(0); s < 10; s++ {
		sess, err := gamesim.NewPlayerSession(tr.Spec, script, coldHabit, 5000+s)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := tr.NewSessionPredictorForHabit(coldHabit, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*3600 && !sess.Done(); i++ {
			pr.Observe(sess.Demand())
			alloc := pr.Alloc()
			sess.Step(alloc.Load())
		}
		sessions++
		if _, err := learner.Observe(coldHabit, pr); err != nil {
			t.Fatal(err)
		}
		if _, ok := tr.HabitModels[coldHabit]; ok {
			break
		}
	}
	if _, ok := tr.HabitModels[coldHabit]; !ok {
		t.Fatalf("cold-start player never graduated after %d sessions (%d transitions)",
			sessions, learner.TransitionCount(coldHabit))
	}
	if acc, ok := tr.HabitAccuracy[coldHabit]; !ok || acc <= 0 || acc > 1 {
		t.Errorf("habit accuracy = %v, %v", acc, ok)
	}
	// The dedicated model is now used by new predictors for this habit.
	pr, err := tr.NewSessionPredictorForHabit(coldHabit, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Accuracy() != tr.HabitAccuracy[coldHabit] {
		t.Errorf("new predictor prior %v != habit accuracy %v", pr.Accuracy(), tr.HabitAccuracy[coldHabit])
	}
}

func TestOnlineLearnerNoRetrainWithoutNewData(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	learner := NewOnlineLearner(tr, 4, 72)
	habit := int64(777)

	// Feed one batch of history manually via a driven session.
	sess, err := gamesim.NewPlayerSession(tr.Spec, 2, habit, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := tr.NewSessionPredictorForHabit(habit, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*3600 && !sess.Done(); i++ {
		pr.Observe(sess.Demand())
		alloc := pr.Alloc()
		sess.Step(alloc.Load())
	}
	learner.RecordSession(habit, pr.History())
	if learner.TransitionCount(habit) == 0 {
		t.Skip("session produced no transitions")
	}
	first, err := learner.MaybeTrain(habit)
	if err != nil {
		t.Fatal(err)
	}
	// A second call without new data must be a no-op.
	again, err := learner.MaybeTrain(habit)
	if err != nil {
		t.Fatal(err)
	}
	if first && again {
		t.Error("retrained without new transitions")
	}
}

func TestOnlineLearnerBelowThreshold(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	learner := NewOnlineLearner(tr, 50, 73)
	learner.RecordSession(42, nil)
	trained, err := learner.MaybeTrain(42)
	if err != nil || trained {
		t.Errorf("trained=%v err=%v on empty history", trained, err)
	}
}
