package telemetry

import (
	"testing"
	"testing/quick"

	"cocg/internal/resources"
	"cocg/internal/simclock"
)

func TestSamplerEmitsEveryFrameLen(t *testing.T) {
	s := NewSampler(0, 1)
	v := resources.New(10, 20, 30, 40)
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
		t.Errorf("noiseless frame = %v, want %v", frame, v)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after emit = %d", s.Pending())
	}
}

func TestSamplerAveragesWithinFrame(t *testing.T) {
	s := NewSampler(0, 1)
	for i := 0; i < 4; i++ {
		s.Observe(resources.New(0, 0, 0, 0))
	}
	frame, ok := s.Observe(resources.New(50, 100, 0, 0))
	if !ok {
		t.Fatal("no frame")
	}
	if frame != resources.New(10, 20, 0, 0) {
		t.Errorf("frame = %v", frame)
	}
}

// TestSamplerFrameIsMeanOfObservations pins the running-sum fold to
// resources.Mean over the frame's observations, bit for bit, on values whose
// sum rounds differently in a different order.
func TestSamplerFrameIsMeanOfObservations(t *testing.T) {
	s := NewSampler(0, 1)
	var obs []resources.Vector
	for i := 0; i < 4*int(simclock.FrameLen); i++ {
		x := float64(i)
		v := resources.New(0.1+x/3, 1e-9*x, 97.3-x/7, 33.3333*x)
		obs = append(obs, v)
		frame, ok := s.Observe(v)
		if !ok {
			continue
		}
		if want := resources.Mean(obs); frame != want {
			t.Fatalf("frame ending at second %d = %v, want Mean = %v", i, frame, want)
		}
		obs = obs[:0]
	}
}

func TestSamplerNoiseBounded(t *testing.T) {
	s := NewSampler(5, 2)
	for i := 0; i < 100; i++ {
		frame, ok := s.Observe(resources.New(50, 50, 50, 50))
		if ok {
			for d := range frame {
				if frame[d] < 0 || frame[d] > 100 {
					t.Fatalf("noisy frame out of range: %v", frame)
				}
			}
		}
	}
}

func TestSamplerNoiseIsApplied(t *testing.T) {
	s := NewSampler(5, 3)
	var frames []resources.Vector
	for i := 0; i < 50; i++ {
		if f, ok := s.Observe(resources.New(50, 50, 50, 50)); ok {
			frames = append(frames, f)
		}
	}
	distinct := map[resources.Vector]bool{}
	for _, f := range frames {
		distinct[f] = true
	}
	if len(distinct) < 2 {
		t.Error("noise produced identical frames")
	}
}

func TestSamplerReset(t *testing.T) {
	s := NewSampler(0, 1)
	s.Observe(resources.New(1, 1, 1, 1))
	s.Observe(resources.New(1, 1, 1, 1))
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Reset()
	if s.Pending() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestHistoryEviction(t *testing.T) {
	h := NewHistory(3)
	for i := 1; i <= 5; i++ {
		h.Push(resources.Uniform(float64(i)))
	}
	if h.Len() != 3 || h.Total() != 5 {
		t.Fatalf("Len=%d Total=%d", h.Len(), h.Total())
	}
	newest, ok := h.Last(0)
	if !ok || newest != resources.Uniform(5) {
		t.Errorf("Last(0) = %v, %v", newest, ok)
	}
	oldest, ok := h.Last(2)
	if !ok || oldest != resources.Uniform(3) {
		t.Errorf("Last(2) = %v, %v", oldest, ok)
	}
	if _, ok := h.Last(3); ok {
		t.Error("Last(3) should not exist")
	}
	if _, ok := h.Last(-1); ok {
		t.Error("Last(-1) should not exist")
	}
}

func TestHistorySnapshotIsCopy(t *testing.T) {
	h := NewHistory(2)
	h.Push(resources.Uniform(1))
	h.Push(resources.Uniform(2))
	snap := h.Snapshot()
	snap[0] = resources.Uniform(99)
	if got, _ := h.Last(1); got != resources.Uniform(1) {
		t.Error("Snapshot aliases internal storage")
	}
}

func TestHistoryAggregates(t *testing.T) {
	h := NewHistory(10)
	h.Push(resources.New(10, 0, 0, 0))
	h.Push(resources.New(30, 20, 0, 0))
	if h.Mean() != resources.New(20, 10, 0, 0) {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Peak() != resources.New(30, 20, 0, 0) {
		t.Errorf("Peak = %v", h.Peak())
	}
}

func TestHistoryMinCapacity(t *testing.T) {
	h := NewHistory(0)
	h.Push(resources.Uniform(1))
	h.Push(resources.Uniform(2))
	if h.Len() != 1 {
		t.Errorf("capacity-0 history Len = %d, want clamped to 1", h.Len())
	}
}

func TestPropertyHistoryNeverExceedsCap(t *testing.T) {
	f := func(pushes uint8, capRaw uint8) bool {
		c := 1 + int(capRaw%10)
		h := NewHistory(c)
		for i := 0; i < int(pushes); i++ {
			h.Push(resources.Uniform(float64(i)))
		}
		want := int(pushes)
		if want > c {
			want = c
		}
		return h.Len() == want && h.Total() == int(pushes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHistoryLastOrdering(t *testing.T) {
	f := func(pushes uint8) bool {
		h := NewHistory(8)
		n := int(pushes%50) + 1
		for i := 0; i < n; i++ {
			h.Push(resources.Uniform(float64(i)))
		}
		for i := 0; i < h.Len(); i++ {
			v, ok := h.Last(i)
			if !ok || v != resources.Uniform(float64(n-1-i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
