package experiments

import (
	"fmt"
	"strings"

	"cocg/internal/gamesim"
	"cocg/internal/predictor"
)

// OnlinePoint is one step of the cold-start learning curve.
type OnlinePoint struct {
	Session   int
	Accuracy  float64 // running prediction accuracy during that session
	Dedicated bool    // whether the player had a dedicated model yet
}

// OnlineLearningResult is the extension experiment: a brand-new player's
// prediction accuracy over consecutive sessions as the online learner
// accumulates their history and trains them a dedicated model. The paper
// trains mobile-game models per player "once and for all"; this shows the
// road there for a player the offline corpus never saw.
type OnlineLearningResult struct {
	Game   string
	Points []OnlinePoint
	// ColdAccuracy / WarmAccuracy are the mean running accuracies before
	// and after the dedicated model appears.
	ColdAccuracy float64
	WarmAccuracy float64
}

// OnlineLearning plays a cold-start Genshin player for several sessions
// under the online learner.
func OnlineLearning(ctx *Context) (*OnlineLearningResult, error) {
	spec := gamesim.GenshinImpact()
	shared, _ := ctx.System.Bundle(spec.Name)
	// The learner adds dedicated models to the bundle as the player
	// graduates; work on a clone so the shared system stays immutable and
	// this experiment can run concurrently with (and independently of) the
	// others.
	b := shared.Clone()
	learner := predictor.NewOnlineLearner(b, 8, ctx.Opt.Seed+81)
	habit := ctx.Opt.Seed + 987_654_321 // unseen player
	script := int(uint64(habit) % uint64(len(spec.Scripts)))
	sessions := 12
	if ctx.Opt.Fast {
		sessions = 6
	}
	out := &OnlineLearningResult{Game: spec.Name}
	var coldSum, warmSum float64
	var coldN, warmN int
	for s := 0; s < sessions; s++ {
		_, dedicated := b.HabitModels[habit]
		sess, err := gamesim.NewPlayerSession(spec, script, habit, ctx.Opt.Seed+int64(6000+s))
		if err != nil {
			return nil, err
		}
		pr, err := b.NewSessionPredictorForHabit(habit, predictor.Config{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 4*3600 && !sess.Done(); i++ {
			pr.Observe(sess.Demand())
			sess.Step(pr.Alloc())
		}
		acc := pr.Accuracy()
		out.Points = append(out.Points, OnlinePoint{Session: s + 1, Accuracy: acc, Dedicated: dedicated})
		if dedicated {
			warmSum += acc
			warmN++
		} else {
			coldSum += acc
			coldN++
		}
		if _, err := learner.Observe(habit, pr); err != nil {
			return nil, err
		}
	}
	if coldN > 0 {
		out.ColdAccuracy = coldSum / float64(coldN)
	}
	if warmN > 0 {
		out.WarmAccuracy = warmSum / float64(warmN)
	}
	return out, nil
}

// String renders the learning curve.
func (r *OnlineLearningResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: online learning for a cold-start %s player\n", r.Game)
	t := &table{header: []string{"session", "model", "running accuracy"}}
	for _, p := range r.Points {
		model := "pooled"
		if p.Dedicated {
			model = "dedicated"
		}
		t.add(fmt.Sprint(p.Session), model, pct(p.Accuracy))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "mean accuracy: cold (pooled) %s -> warm (dedicated) %s\n",
		pct(r.ColdAccuracy), pct(r.WarmAccuracy))
	return b.String()
}
