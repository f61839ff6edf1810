// Package simclock provides the deterministic discrete-time base used by the
// whole CoCG simulation.
//
// The paper's real-time system samples every 5 seconds of wall-clock time;
// here one tick is one virtual second, so a "frame" (Section IV-A2) is 5
// ticks. Running on virtual time makes every experiment reproducible and lets
// two simulated hours (Fig. 11) complete in milliseconds.
package simclock

import "fmt"

// Seconds is a point in, or span of, virtual time measured in whole seconds.
type Seconds int64

// Common spans.
const (
	Second Seconds = 1
	Minute         = 60 * Second
	Hour           = 60 * Minute

	// FrameLen is the paper's 5-second frame / detection interval.
	FrameLen = 5 * Second
)

// String formats the time as h:mm:ss.
func (s Seconds) String() string {
	neg := ""
	if s < 0 {
		neg, s = "-", -s
	}
	return fmt.Sprintf("%s%d:%02d:%02d", neg, s/Hour, (s%Hour)/Minute, s%Minute)
}

// Clock is a monotonic virtual clock. The zero value starts at t=0.
type Clock struct {
	now Seconds
}

// Now returns the current virtual time.
func (c *Clock) Now() Seconds { return c.now }

// Advance moves the clock forward by d seconds. It panics when d is negative
// because virtual time, like real time, only moves forward; a negative step
// is always a caller bug.
func (c *Clock) Advance(d Seconds) Seconds {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %d", d))
	}
	c.now += d
	return c.now
}

// Tick advances the clock by one second.
func (c *Clock) Tick() Seconds { return c.Advance(Second) }

// FrameIndex returns which 5-second frame the time t falls into.
func FrameIndex(t Seconds) int64 { return int64(t / FrameLen) }

// FrameStart returns the start time of the frame containing t.
func FrameStart(t Seconds) Seconds { return (t / FrameLen) * FrameLen }

// IsFrameBoundary reports whether t is the first second of a frame; the
// predictor's detection loop fires on these ticks.
func IsFrameBoundary(t Seconds) bool { return t%FrameLen == 0 }
