package simclock

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock Now = %d", c.Now())
	}
}

func TestAdvanceAndTick(t *testing.T) {
	var c Clock
	if got := c.Advance(10); got != 10 {
		t.Errorf("Advance(10) = %d", got)
	}
	if got := c.Tick(); got != 11 {
		t.Errorf("Tick = %d", got)
	}
	if c.Now() != 11 {
		t.Errorf("Now = %d", c.Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestString(t *testing.T) {
	cases := map[Seconds]string{
		0:                     "0:00:00",
		61:                    "0:01:01",
		2*Hour + 3*Minute + 4: "2:03:04",
		-61:                   "-0:01:01",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestFrameHelpers(t *testing.T) {
	if FrameIndex(0) != 0 || FrameIndex(4) != 0 || FrameIndex(5) != 1 {
		t.Error("FrameIndex boundaries wrong")
	}
	if FrameStart(7) != 5 || FrameStart(5) != 5 || FrameStart(4) != 0 {
		t.Error("FrameStart wrong")
	}
	if !IsFrameBoundary(0) || !IsFrameBoundary(10) || IsFrameBoundary(3) {
		t.Error("IsFrameBoundary wrong")
	}
}

func TestPropertyFrameStartConsistent(t *testing.T) {
	f := func(raw uint32) bool {
		tt := Seconds(raw % 1_000_000)
		fs := FrameStart(tt)
		return fs <= tt && tt-fs < FrameLen && IsFrameBoundary(fs) &&
			FrameIndex(fs) == FrameIndex(tt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdvanceMonotonic(t *testing.T) {
	f := func(steps []uint16) bool {
		var c Clock
		prev := c.Now()
		for _, s := range steps {
			now := c.Advance(Seconds(s))
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
