package experiments

import (
	"fmt"

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
	sessions := scaled(ctx.Opt.Fast, 12, 6)
	out := &OnlineLearningResult{Game: spec.Name}
	var coldSum, warmSum float64
	var coldN, warmN int
	for s := 0; s < sessions; s++ {
		_, dedicated := b.HabitModels[habit]
		_, pr, err := soloSession(b, s, habit, ctx.Opt.Seed+int64(6000+s), predictor.Config{}, nil)
		if err != nil {
			return nil, err
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
	out.ColdAccuracy = coldSum / float64(max(coldN, 1))
	out.WarmAccuracy = warmSum / float64(max(warmN, 1))
	return out, nil
}

// String renders the learning curve.
func (r *OnlineLearningResult) String() string {
	t := &table{title: fmt.Sprintf("Extension: online learning for a cold-start %s player", r.Game),
		header: []string{"session", "model", "running accuracy"}}
	for _, p := range r.Points {
		model := "pooled"
		if p.Dedicated {
			model = "dedicated"
		}
		t.add(fmt.Sprint(p.Session), model, pct(p.Accuracy))
	}
	t.note = fmt.Sprintf("mean accuracy: cold (pooled) %s -> warm (dedicated) %s",
		pct(r.ColdAccuracy), pct(r.WarmAccuracy))
	return t.String()
}
