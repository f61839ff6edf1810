package gamesim

// Counter-indexed demand noise.
//
// Per-second demand jitter used to be drawn from the session's sequential RNG,
// which coupled every second to every other: skipping one second's draw would
// shift every later draw (noise, spike decisions, loading durations alike).
// The bulk stepper needs the opposite property — evaluating or not evaluating
// a second's demand must be unobservable — so jitter is a pure function of
// (session noise seed, elapsed second, dimension). The sequential RNG keeps
// everything that is naturally event-shaped: plan realization, loading
// durations, spike onsets and parameters.
//
// The sample is a scaled Irwin–Hall sum of three uniforms: mean 0, variance 1,
// and — the property the bulk certificate leans on — hard-bounded to (-3, 3).
// A bounded tail makes base + 3·jitter a true componentwise envelope of every
// demand the session can present in a cluster, which is what lets a server
// prove "grants will equal demands for the next H seconds" without evaluating
// a single draw.

// noiseGamma is the splitmix64 increment (golden-ratio constant).
const noiseGamma uint64 = 0x9E3779B97F4A7C15

// noiseMix is the splitmix64 output mix: a bijective avalanche over 64 bits.
//
//cocg:inline
func noiseMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// noiseUnit maps 64 hash bits to a uniform in [0, 1) with 53-bit resolution.
//
//cocg:inline
func noiseUnit(bits uint64) float64 {
	return float64(bits>>11) / (1 << 53)
}

// demandNoise returns the session's demand jitter for one (second, dimension)
// pair: a zero-mean, unit-variance sample strictly inside (-3, 3). It is
// stateless — any subset of seconds can be evaluated in any order.
func demandNoise(seed uint64, t int64, dim int) float64 {
	ctr := seed ^ noiseMix(uint64(t)+noiseGamma*uint64(dim+1))
	ctr += noiseGamma
	u1 := noiseUnit(noiseMix(ctr))
	ctr += noiseGamma
	u2 := noiseUnit(noiseMix(ctr))
	ctr += noiseGamma
	u3 := noiseUnit(noiseMix(ctr))
	return 2 * (u1 + u2 + u3 - 1.5)
}

// noiseBound is the strict bound on |demandNoise|: base demand plus
// noiseBound × jitter is a true worst-case envelope.
const noiseBound = 3.0
