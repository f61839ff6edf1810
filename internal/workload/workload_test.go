package workload

import (
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/resources"
)

// nopPolicy admits nothing, so arrivals pile up in Pending.
type nopPolicy struct{}

func (nopPolicy) Score(*platform.Server, *gamesim.GameSpec) (float64, bool) {
	return 0, false
}
func (nopPolicy) NewController(*gamesim.GameSpec, int64) (platform.Controller, error) {
	return nil, nil
}
func (nopPolicy) Regulate(*platform.Server) {}

func TestGeneratorUsesHabitPool(t *testing.T) {
	spec := gamesim.GenshinImpact()
	pool := []int64{11, 22, 33}
	g := NewGenerator(map[string][]int64{spec.Name: pool}, 1)
	seen := map[int64]bool{}
	for i := 0; i < 50; i++ {
		a := g.Next(spec)
		found := false
		for _, h := range pool {
			if a.Habit == h {
				found = true
			}
		}
		if !found {
			t.Fatalf("habit %d not from pool", a.Habit)
		}
		seen[a.Habit] = true
		// Mobile: the script is the habit's routine.
		if a.Script != int(uint64(a.Habit)%3) {
			t.Fatalf("mobile script %d does not match habit %d", a.Script, a.Habit)
		}
	}
	if len(seen) < 2 {
		t.Error("generator never varied habits")
	}
}

func TestGeneratorFreshHabitsWithoutPool(t *testing.T) {
	g := NewGenerator(nil, 2)
	a := g.Next(gamesim.Contra())
	b := g.Next(gamesim.Contra())
	if a.Habit == b.Habit {
		t.Error("fresh habits identical")
	}
	if a.SessionSeed == b.SessionSeed {
		t.Error("session seeds identical")
	}
	if a.Script < 0 || a.Script >= len(gamesim.Contra().Scripts) {
		t.Errorf("script %d out of range", a.Script)
	}
}

func TestPairStreamKeepsBacklog(t *testing.T) {
	c := platform.NewCluster(1, nopPolicy{})
	gen := NewGenerator(nil, 3)
	s := &PairStream{Gen: gen, A: gamesim.CSGO(), B: gamesim.Contra()}
	s.Feed(c)
	if len(c.Pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(c.Pending))
	}
	// Feeding again adds nothing: the backlog is already full.
	s.Feed(c)
	if len(c.Pending) != 2 {
		t.Errorf("pending after refeed = %d", len(c.Pending))
	}
	counts := map[string]int{}
	for _, a := range c.Pending {
		counts[a.Spec.Name]++
	}
	if counts["CSGO"] != 1 || counts["Contra"] != 1 {
		t.Errorf("backlog mix = %v", counts)
	}
}

func TestPairStreamDefaultBacklog(t *testing.T) {
	c := platform.NewCluster(1, nopPolicy{})
	s := &PairStream{Gen: NewGenerator(nil, 4), A: gamesim.Contra(), B: gamesim.Contra()}
	s.Feed(c)
	if len(c.Pending) != 1 {
		t.Errorf("one game fed twice queued %d arrivals, want a backlog of 1", len(c.Pending))
	}
}

func TestMixStreamRate(t *testing.T) {
	gen := NewGenerator(nil, 5)
	m := NewMixStream(gen, []*gamesim.GameSpec{gamesim.Contra(), gamesim.CSGO()}, 0.5, 6)
	n := len(m.Schedule(0, 1000))
	if n < 350 || n > 650 {
		t.Errorf("0.5/s for 1000s produced %d arrivals", n)
	}
}

func TestMixStreamEmptyMix(t *testing.T) {
	m := NewMixStream(NewGenerator(nil, 7), nil, 1, 8)
	if got := m.Schedule(0, 100); len(got) != 0 {
		t.Errorf("empty mix produced %d arrivals", len(got))
	}
}

// TestScheduleContinuesTheStream pins Schedule's contract: arrivals are
// stamped ascending inside [start, start+horizon), and consecutive schedules
// draw exactly what one schedule over both spans does.
func TestScheduleContinuesTheStream(t *testing.T) {
	mix := []*gamesim.GameSpec{gamesim.Contra(), gamesim.CSGO(), gamesim.DOTA2()}
	whole := NewMixStream(NewGenerator(nil, 9), mix, 1.3, 10).Schedule(40, 200)
	parts := NewMixStream(NewGenerator(nil, 9), mix, 1.3, 10)
	split := append(parts.Schedule(40, 70), parts.Schedule(110, 130)...)
	if len(whole) < 200 || len(whole) != len(split) {
		t.Fatalf("one schedule drew %d arrivals, two drew %d; want at least one per second and equal counts", len(whole), len(split))
	}
	for i, a := range whole {
		if a != split[i] {
			t.Fatalf("arrival %d: one schedule %+v, two schedules %+v", i, a, split[i])
		}
		if a.Submitted < 40 || a.Submitted >= 240 || (i > 0 && a.Submitted < whole[i-1].Submitted) {
			t.Fatalf("arrival %d submitted at %d: not ascending inside [40, 240)", i, a.Submitted)
		}
	}
}

func TestArrivalsAreRunnable(t *testing.T) {
	g := NewGenerator(nil, 9)
	for _, spec := range gamesim.AllGames() {
		a := g.Next(spec)
		sess, err := gamesim.NewPlayerSession(a.Spec, a.Script, a.Habit, a.SessionSeed)
		if err != nil {
			t.Fatalf("%s arrival not runnable: %v", spec.Name, err)
		}
		for i := 0; i < 10; i++ {
			sess.Step(resources.FullServer.Load())
		}
	}
}
