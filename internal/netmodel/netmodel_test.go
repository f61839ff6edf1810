package netmodel

import (
	"testing"
	"testing/quick"
)

func TestFiberDeliversFast(t *testing.T) {
	l := FiberLink(1)
	var s Stats
	for i := 0; i < 500; i++ {
		s.Observe(l.Send(8000))
	}
	if s.Lost != 0 {
		t.Errorf("fiber lost %d", s.Lost)
	}
	if s.MeanLatencyMS() > 5 {
		t.Errorf("fiber mean latency %.1f ms", s.MeanLatencyMS())
	}
	if s.StutterRate() > 0 {
		t.Errorf("fiber stutter rate %.3f", s.StutterRate())
	}
}

func TestOverloadedLinkQueues(t *testing.T) {
	// Pushing 20 Mbps through a 15 Mbps mobile link builds a backlog and
	// latency grows without bound.
	l := MobileLink(2)
	var s Stats
	for i := 0; i < 60; i++ {
		s.Observe(l.Send(20_000))
	}
	if l.Backlog() == 0 {
		t.Error("no backlog despite sustained overload")
	}
	if s.StutterRate() < 0.3 {
		t.Errorf("stutter rate %.2f under sustained overload", s.StutterRate())
	}
	if s.WorstLatencyMS() < 100 {
		t.Errorf("worst latency %.1f ms", s.WorstLatencyMS())
	}
}

func TestBacklogDrains(t *testing.T) {
	l := CableLink(3)
	for i := 0; i < 10; i++ {
		l.Send(60_000) // overload
	}
	if l.Backlog() == 0 {
		t.Fatal("expected backlog")
	}
	for i := 0; i < 200; i++ {
		l.Send(1000) // light traffic drains the queue
	}
	if l.Backlog() != 0 {
		t.Errorf("backlog %f did not drain", l.Backlog())
	}
}

func TestLossAccounting(t *testing.T) {
	l := newLink(Link{baseLatencyMS: 5, bandwidthKbps: 50_000, lossRate: 0.5}, 4)
	var s Stats
	for i := 0; i < 1000; i++ {
		s.Observe(l.Send(5000))
	}
	if s.Lost < 350 || s.Lost > 650 {
		t.Errorf("lost %d of 1000 at 50%% loss", s.Lost)
	}
	if s.StutterRate() < 0.3 {
		t.Errorf("stutter rate %.2f should include losses", s.StutterRate())
	}
}

// TestZeroLinkSends pins that a zero Link, which has no random source, neither
// jitters nor loses: it delivers at once instead of panicking on a draw.
func TestZeroLinkSends(t *testing.T) {
	d := (&Link{}).Send(500)
	if !d.Delivered || d.LatencyMS != 0 || d.Stutter {
		t.Errorf("zero link delivered %+v, want delivered at 0 ms", d)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.MeanLatencyMS() != 0 || s.StutterRate() != 0 || s.WorstLatencyMS() != 0 {
		t.Error("empty stats not zero")
	}
}

func TestPropertyLatencyAtLeastBase(t *testing.T) {
	f := func(seed int64, kbpsRaw uint16) bool {
		l := newLink(Link{baseLatencyMS: 10, jitterMS: 3, bandwidthKbps: 20_000}, seed)
		d := l.Send(float64(kbpsRaw))
		return !d.Delivered || d.LatencyMS >= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBacklogNonNegative(t *testing.T) {
	f := func(seed int64, sends []uint16) bool {
		l := CableLink(seed)
		for _, k := range sends {
			l.Send(float64(k))
			if l.Backlog() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
