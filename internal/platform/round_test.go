package platform

import (
	"fmt"
	"math/rand"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/simclock"
)

// refPick is the per-arrival scan a placement round replaced: every
// server scored afresh for every arrival, the highest score winning and
// exact ties going to the earliest server.
func refPick(c *Cluster, a Arrival) *Server {
	var best *Server
	bestScore := 0.0
	for _, srv := range c.Servers {
		if s, ok := c.Policy.Score(srv, a.Spec); ok && (best == nil || s > bestScore) {
			best, bestScore = srv, s
		}
	}
	return best
}

// refRound is tryPlace over refPick: the reference side of the round
// equivalence test.
func refRound(c *Cluster) {
	remaining := c.Pending[:0]
	blocked := false
	for _, a := range c.Pending {
		if blocked {
			remaining = append(remaining, a)
			continue
		}
		if srv := refPick(c, a); srv != nil {
			sess, err := gamesim.NewPlayerSession(a.Spec, a.Script, a.Habit, a.SessionSeed)
			if err != nil {
				c.FailedPlacements++
				continue
			}
			ctl, err := c.Policy.NewController(a.Spec, a.Habit)
			if err != nil {
				c.FailedPlacements++
				continue
			}
			c.Placements++
			srv.Add(a.Spec, sess, ctl)
			continue
		}
		c.RejectedTicks++
		remaining = append(remaining, a)
		if c.StarveLimit > 0 && c.Clock.Now()-a.Submitted > c.StarveLimit {
			blocked = true
		}
	}
	c.Pending = remaining
}

// mixScorer's verdict depends on the game and on what the server hosts, so
// one game's placement moves another game's board: it admits while the
// server hosts fewer than cap sessions and at most two of the arriving game,
// and scores from three values.
type mixScorer struct {
	admitAllPolicy
	cap int
}

func (s *mixScorer) Score(srv *Server, spec *gamesim.GameSpec) (float64, bool) {
	same := 0
	for _, h := range srv.Hosted {
		if h.Spec.Name == spec.Name {
			same++
		}
	}
	if srv.NumHosted() >= s.cap || same >= 2 {
		return 0, false
	}
	return float64((3*srv.NumHosted() + len(spec.Name)) % 3), true
}

// countingPolicy counts the Score calls it forwards.
type countingPolicy struct {
	Policy
	calls int
}

func (p *countingPolicy) Score(srv *Server, spec *gamesim.GameSpec) (float64, bool) {
	p.calls++
	return p.Policy.Score(srv, spec)
}

// requireSameCluster fails unless two clusters agree on every placement,
// counter and the pending queue's order.
func requireSameCluster(t *testing.T, label string, got, want *Cluster) {
	t.Helper()
	if got.Placements != want.Placements || got.RejectedTicks != want.RejectedTicks || got.FailedPlacements != want.FailedPlacements {
		t.Fatalf("%s: placed/rejected/failed %d/%d/%d, reference %d/%d/%d", label,
			got.Placements, got.RejectedTicks, got.FailedPlacements,
			want.Placements, want.RejectedTicks, want.FailedPlacements)
	}
	for i, srv := range got.Servers {
		ref := want.Servers[i]
		if len(srv.Hosted) != len(ref.Hosted) {
			t.Fatalf("%s: server %d hosts %d sessions, reference %d", label, i, len(srv.Hosted), len(ref.Hosted))
		}
		for j, h := range srv.Hosted {
			r := ref.Hosted[j]
			if h.ID != r.ID || h.Spec != r.Spec || h.Session.PlayerID != r.Session.PlayerID || h.Arrived != r.Arrived {
				t.Fatalf("%s: server %d session %d is %s/%d, reference %s/%d", label, i, j,
					h.Spec.Name, h.Session.PlayerID, r.Spec.Name, r.Session.PlayerID)
			}
		}
	}
	if len(got.Pending) != len(want.Pending) {
		t.Fatalf("%s: %d pending, reference %d", label, len(got.Pending), len(want.Pending))
	}
	for i := range got.Pending {
		if got.Pending[i] != want.Pending[i] {
			t.Fatalf("%s: pending[%d] = %+v, reference %+v", label, i, got.Pending[i], want.Pending[i])
		}
	}
}

// TestRoundMatchesPerArrivalScan drives seeded queues through tryPlace and
// through the per-arrival reference scan, round after round with the fleet
// ticking, a StarveLimit block and malformed-script arrivals, and requires
// identical placements, counters and pending order.
func TestRoundMatchesPerArrivalScan(t *testing.T) {
	games := []*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact(), gamesim.CSGO()}
	// rejects says whether the policy can turn an arrival away; admit-all
	// never does, so its queues must place and never reject.
	policies := []struct {
		name    string
		rejects bool
		make    func(rng *rand.Rand, n int) Policy
	}{
		{"admit-all", false, func(*rand.Rand, int) Policy { return &admitAllPolicy{} }},
		{"occupancy", true, func(*rand.Rand, int) Policy { return &occupancyScorer{cap: 3} }},
		{"mix", true, func(*rand.Rand, int) Policy { return &mixScorer{cap: 4} }},
		{"table", true, func(rng *rand.Rand, n int) Policy {
			pol := &tableScorer{scores: make([]float64, n), admits: make([]bool, n)}
			for i := range pol.scores {
				pol.scores[i] = float64(rng.Intn(3)) - 1
				pol.admits[i] = rng.Intn(4) > 0
			}
			return pol
		}},
	}
	// outcomes counts the rounds in which an arrival placed, was rejected,
	// failed to materialize, or was held back unoffered behind a starved one.
	var outcomes [4]int
	for _, pc := range policies {
		placedBefore, rejectedBefore := outcomes[0], outcomes[1]
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(12)
			// Both clusters share one policy instance: every test policy is
			// stateless, and tableScorer's table must be the same on both.
			pol := pc.make(rng, n)
			got, want := NewCluster(n, pol), NewCluster(n, pol)
			if seed%3 == 0 {
				got.StarveLimit, want.StarveLimit = 2*simclock.FrameLen, 2*simclock.FrameLen
			}
			for round := 0; round < 30; round++ {
				for k := rng.Intn(8); k > 0; k-- {
					spec := games[rng.Intn(len(games))]
					a := Arrival{Spec: spec, Script: rng.Intn(len(spec.Scripts)), Habit: rng.Int63n(50), SessionSeed: rng.Int63()}
					if rng.Intn(10) == 0 {
						a.Script = 9999 // malformed: wins a server, fails to materialize
					}
					got.Submit(a)
					want.Submit(a)
				}
				queued, placed, rejected, failed := len(got.Pending), got.Placements, got.RejectedTicks, got.FailedPlacements
				got.tryPlace()
				refRound(want)
				requireSameCluster(t, fmt.Sprintf("%s seed %d round %d", pc.name, seed, round), got, want)
				placed, rejected, failed = got.Placements-placed, got.RejectedTicks-rejected, got.FailedPlacements-failed
				for i, happened := range []bool{placed > 0, rejected > 0, failed > 0, placed+rejected+failed < queued} {
					if happened {
						outcomes[i]++
					}
				}
				got.TickSpan(simclock.FrameLen)
				want.TickSpan(simclock.FrameLen)
			}
		}
		if outcomes[0] == placedBefore {
			t.Errorf("%s: the queues never place an arrival", pc.name)
		}
		if rejected := outcomes[1] != rejectedBefore; rejected != pc.rejects {
			t.Errorf("%s: an arrival rejected in some round is %v, want %v", pc.name, rejected, pc.rejects)
		}
	}
	for i, what := range []string{"placed", "rejected", "failed", "blocked"} {
		if outcomes[i] == 0 {
			t.Errorf("no round %s an arrival; the queues do not exercise every outcome (%v)", what, outcomes)
		}
	}
}

// TestRoundScoresEachServerOncePerGame pins the round's cost: k rejected
// arrivals of one game over n servers cost n Score calls, not k·n; a second
// game costs another n; and after a placement only the placed server is
// re-scored.
func TestRoundScoresEachServerOncePerGame(t *testing.T) {
	const n, k = 16, 5
	contra, genshin := gamesim.Contra(), gamesim.GenshinImpact()

	rej := &countingPolicy{Policy: &rejectPolicy{}}
	c := NewCluster(n, rej)
	for i := 0; i < k; i++ {
		c.Submit(Arrival{Spec: contra, SessionSeed: int64(i)})
	}
	c.tryPlace()
	if rej.calls != n || c.RejectedTicks != k {
		t.Fatalf("%d rejected arrivals of one game: %d Score calls, %d rejections; want %d and %d", k, rej.calls, c.RejectedTicks, n, k)
	}
	c.Submit(Arrival{Spec: genshin})
	rej.calls = 0
	c.tryPlace()
	if want := 2 * n; rej.calls != want {
		t.Fatalf("a round offering two games made %d Score calls, want %d", rej.calls, want)
	}

	adm := &countingPolicy{Policy: &admitAllPolicy{}}
	c = NewCluster(n, adm)
	for i := 0; i < k; i++ {
		c.Submit(Arrival{Spec: contra, Script: 0, Habit: 1, SessionSeed: int64(i)})
	}
	c.tryPlace()
	if want := n + k - 1; adm.calls != want || c.Placements != k {
		t.Fatalf("%d placed arrivals of one game: %d Score calls, %d placed; want %d and %d", k, adm.calls, c.Placements, want, k)
	}
	if c.Servers[0].NumHosted() != k {
		t.Fatalf("first fit put %d sessions on server 0, want all %d", c.Servers[0].NumHosted(), k)
	}
}

// TestWarmRoundAllocatesNothing is the round's allocation gate: once a round
// has sized its boards, a round in which nothing places allocates nothing.
func TestWarmRoundAllocatesNothing(t *testing.T) {
	c := NewCluster(64, &rejectPolicy{})
	for i, spec := range []*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact(), gamesim.Contra()} {
		c.Submit(Arrival{Spec: spec, SessionSeed: int64(i)})
	}
	c.tryPlace()
	if n := testing.AllocsPerRun(100, c.tryPlace); n != 0 {
		t.Errorf("a warm round that places nothing allocated %.1f times, want 0", n)
	}
	if len(c.Pending) != 3 {
		t.Fatalf("%d pending after rejected rounds, want 3", len(c.Pending))
	}
}
