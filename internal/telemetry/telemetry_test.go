package telemetry

import (
	"testing"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

func v4(a, b, c, d float64) resources.V4 { return resources.V4{C0: a, C1: b, C2: c, C3: d} }

func TestSamplerEmitsEveryFrameLen(t *testing.T) {
	var s Sampler
	v := v4(10, 20, 30, 40)
	for i := 0; i < int(simclock.FrameLen)-1; i++ {
		if _, ok := s.Observe(v); ok {
			t.Fatalf("frame emitted after %d seconds", i+1)
		}
	}
	frame, ok := s.Observe(v)
	if !ok {
		t.Fatal("no frame after FrameLen observations")
	}
	if frame != v {
		t.Errorf("frame = %v, want %v", frame, v)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after emit = %d", s.Pending())
	}
}

func TestSamplerAveragesWithinFrame(t *testing.T) {
	var s Sampler
	for i := 0; i < 4; i++ {
		s.Observe(v4(0, 0, 0, 0))
	}
	frame, ok := s.Observe(v4(50, 100, 0, 0))
	if !ok {
		t.Fatal("no frame")
	}
	if frame != v4(10, 20, 0, 0) {
		t.Errorf("frame = %v", frame)
	}
}

// TestSamplerFrameIsMeanOfObservations pins the running-sum fold to
// resources.Mean over the frame's observations, bit for bit, on values whose
// sum rounds differently in a different order.
func TestSamplerFrameIsMeanOfObservations(t *testing.T) {
	var s Sampler
	var obs []resources.Vector
	for i := 0; i < 4*int(simclock.FrameLen); i++ {
		x := float64(i)
		v := resources.New(0.1+x/3, 1e-9*x, 97.3-x/7, 33.3333*x)
		obs = append(obs, v)
		frame, ok := s.Observe(v.Load())
		if !ok {
			continue
		}
		if want := resources.Mean(obs); frame.Vector() != want {
			t.Fatalf("frame ending at second %d = %v, want Mean = %v", i, frame, want)
		}
		obs = obs[:0]
	}
}

func TestSamplerReset(t *testing.T) {
	var s Sampler
	s.Observe(v4(1, 1, 1, 1))
	s.Observe(v4(1, 1, 1, 1))
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Reset()
	if s.Pending() != 0 {
		t.Error("Reset did not clear")
	}
}
