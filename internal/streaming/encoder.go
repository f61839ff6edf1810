package streaming

import (
	"cocg/internal/resources"
)

// Encoder models the server-side video encoder of the GA pipeline: the
// output bitrate scales with the achieved frame rate and with scene motion
// (a busy battle costs more bits than a loading screen), capped by a
// network ceiling. Its settings are those of a 1080p60 cloud-game stream.
type Encoder struct{}

const (
	// baseKbps is the bitrate of a 60 FPS medium-motion scene.
	baseKbps = 8000
	// maxKbps caps the output (network budget).
	maxKbps = 20000
	// minKbps is the floor for any non-black frame output.
	minKbps = 300
)

// DefaultEncoder returns the encoder.
func DefaultEncoder() Encoder { return Encoder{} }

// Encode returns the bitrate for one second of video at the given achieved
// FPS and scene demand. Loading screens are near-static and compress to
// almost nothing — the delivery-side reason loading stages are cheap.
func (e Encoder) Encode(fps float64, demand resources.Vector, loading bool) float64 {
	if fps <= 0 {
		return minKbps
	}
	if loading {
		// A static loading screen: intra refreshes only.
		return clamp(minKbps*2, minKbps, maxKbps)
	}
	// Motion scales with GPU load: a 90 % GPU battle scene moves a lot.
	motion := 0.5 + demand[resources.GPU]/100
	rate := baseKbps * (fps / 60) * motion
	return clamp(rate, minKbps, maxKbps)
}

// AppendFrames appends the per-frame records for one encoded second — one
// FrameInfo per delivered frame, sizes summing to the second's bitrate, the
// first frame an intra (key) frame carrying keyframeWeight deltas' worth of
// bits — and returns the extended slice. A session's writer calls it with
// its one batch's reused backing array, so steady-state encoding allocates
// nothing. The split is pure integer math on (fps, kbps): deterministic for
// a deterministic simulation.
func (e Encoder) AppendFrames(dst []FrameInfo, fps, kbps float64) []FrameInfo {
	n := int(fps + 0.5)
	if n < 1 {
		n = 1
	}
	if n > 240 {
		n = 240
	}
	totalBytes := int64(kbps * 1000 / 8)
	if totalBytes < int64(n) {
		totalBytes = int64(n) // at least one byte per frame
	}
	// One keyframe weighing keyframeWeight delta frames, n-1 deltas.
	delta := totalBytes / int64(n-1+keyframeWeight)
	key := totalBytes - delta*int64(n-1)
	dst = append(dst, FrameInfo{SizeBytes: uint32(key), Key: true})
	for i := 1; i < n; i++ {
		dst = append(dst, FrameInfo{SizeBytes: uint32(delta)})
	}
	return dst
}

// keyframeWeight is how many delta frames one keyframe costs.
const keyframeWeight = 4

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
