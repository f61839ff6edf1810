package streaming

import (
	"sync/atomic"
	"testing"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/simclock"
)

// TestCatchUp pins the fixed-timestep arithmetic: a wake-up owes every whole
// TickEvery since the epoch that has not been run or skipped, runs at most
// two frames of them, and skips the rest.
func TestCatchUp(t *testing.T) {
	const every = 10 * time.Millisecond
	for _, tc := range []struct {
		name    string
		elapsed time.Duration
		done    int64
		run     int64
		skipped int64
	}{
		{"on time", 5 * every, 4, 1, 0},
		{"late by less than a tick", 6*every - 1, 4, 1, 0},
		{"late by 3 ticks", 8 * every, 4, 4, 0},
		{"late by exactly the cap", 14 * every, 4, maxCatchUp, 0},
		{"late beyond the cap", 30*every + every/2, 4, maxCatchUp, 16},
		{"clock does not advance", 4 * every, 4, 0, 0},
		{"clock went backwards", 2 * every, 4, 0, 0},
		{"before the first tick", every - 1, 0, 0, 0},
	} {
		run, skipped := catchUp(tc.elapsed, every, tc.done)
		if run != tc.run || skipped != tc.skipped {
			t.Errorf("%s: catchUp(%v, %v, %d) = (%d, %d), want (%d, %d)",
				tc.name, tc.elapsed, every, tc.done, run, skipped, tc.run, tc.skipped)
		}
	}
}

// fakeClock is a settable clock, in nanoseconds since the Unix epoch.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

// TestTickLoopRunsEverySecondOwed drives the real tick loop with synthetic
// late wake-ups and a synthetic clock: each wake runs exactly the virtual
// seconds owed up to the two-frame cap, counts the rest as skipped, and
// emits one frame batch per frame boundary the burst crosses.
func TestTickLoopRunsEverySecondOwed(t *testing.T) {
	const every = 10 * time.Millisecond
	var clk fakeClock
	wake := make(chan time.Time)
	s, err := serve("127.0.0.1:0", ServerConfig{
		System: testSystem(t), Policy: core.PolicyCoCG, TickEvery: every,
	}, tickSource{wake: wake, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// One wire-less live session whose queue the test drains by hand. The
	// loop only ticks on a wake, so nothing races the set-up.
	spec := gamesim.GenshinImpact() // far longer than the 20 s run here
	sess, err := gamesim.NewPlayerSession(spec, 0, 1001, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := s.cluster.Policy.NewController(spec, 1001)
	if err != nil {
		t.Fatal(err)
	}
	s.clusterMu.Lock()
	ls := &liveSession{id: 1, hosted: s.cluster.Servers[0].Add(spec, sess, ctl), out: newOutQueue(64)}
	s.live = append(s.live, ls)
	s.clusterMu.Unlock()

	// wakeAt sets the clock to at past the epoch and wakes the loop twice at
	// that instant: the second send is taken only after the first wake's
	// burst is over, and it owes nothing.
	wakeAt := func(at time.Duration) {
		clk.ns.Store(int64(at))
		wake <- time.Time{}
		wake <- time.Time{}
	}
	var seq int64
	for _, step := range []struct {
		name    string
		at      time.Duration
		clock   simclock.Seconds // virtual seconds run so far
		skipped uint64           // seconds skipped so far
		batches int              // frame batches this wake emits
	}{
		{"on time", every, 1, 0, 0},
		{"late by half a tick", 2*every + every/2, 2, 0, 0},
		{"late by 3 ticks", 6 * every, 6, 0, 1},            // crosses second 5
		{"late beyond the cap", 30 * every, 16, 14, 2},     // crosses 10 and 15
		{"clock does not advance", 30 * every, 16, 14, 0},  // owes nothing
		{"on time after a skip", 31 * every, 17, 14, 0},    // the skip is not owed again
		{"late by 2 ticks", 34*every + every/2, 20, 14, 1}, // crosses 20
	} {
		wakeAt(step.at)
		s.clusterMu.Lock()
		clock := s.cluster.Clock.Now()
		s.clusterMu.Unlock()
		if clock != step.clock || s.ticks.Load() != uint64(step.clock) || s.ticksSkipped.Load() != step.skipped {
			t.Fatalf("%s: clock %d, ticks %d, skipped %d; want %d, %d, %d", step.name,
				clock, s.ticks.Load(), s.ticksSkipped.Load(), step.clock, step.clock, step.skipped)
		}
		batches := 0
		for {
			var rec frameRec
			var end SessionStat
			isEnd, ok := ls.out.tryPop(&rec, &end)
			if !ok {
				break
			}
			if isEnd {
				t.Fatalf("%s: got an End, want frame batches only", step.name)
			}
			if rec.seq != seq+1 {
				t.Fatalf("%s: batch seq %d after seq %d", step.name, rec.seq, seq)
			}
			seq++
			batches++
		}
		if batches != step.batches {
			t.Errorf("%s: %d frame batches, want %d", step.name, batches, step.batches)
		}
	}
}
