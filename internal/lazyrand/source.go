// Package lazyrand is math/rand's seeded generator with the seeding cost
// moved from NewSource to the words a caller actually reads.
//
// rand.NewSource fills a 607-word ring with 1 841 sequential steps of the
// Lehmer generator x ← 48271·x mod (2³¹−1) before the first draw. Ring word i
// is built from steps 21+3i, 22+3i and 23+3i, and step n is seed·48271ⁿ, so
// with the 607 powers 48271^(21+3i) tabulated once any word costs three
// modular multiplications when first touched. The stream is math/rand's,
// value for value, for every seed; use it where a generator is short-lived
// and the standard library elsewhere (docs/PERFORMANCE.md, "Seeding").
package lazyrand

const (
	ringLen  = 607
	ringTap  = 273
	int63    = 1<<63 - 1
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	zeroSeed = 89482311 // what math/rand substitutes for a seed ≡ 0 mod lehmerM
)

// jump[i] is lehmerA^(21+3i) mod lehmerM: the multiplier that takes a seed
// straight to the first of the three Lehmer values ring word i is built from.
var jump = func() (j [ringLen]uint64) {
	const cube = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lehmerA % lehmerM
	}
	for i := range j {
		j[i] = x
		x = x * cube % lehmerM
	}
	return j
}()

// Source is a rand.Source64 emitting exactly the stream of
// rand.NewSource(seed), with ring words computed on first touch. Like the
// standard source it is not safe for concurrent use.
type Source struct {
	tap, feed int
	seed      uint64 // normalised into [1, lehmerM)
	filled    [(ringLen + 63) / 64]uint64
	vec       [ringLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed re-seeds the source: the next value drawn is the first value of
// rand.NewSource(seed). Every ring word is forgotten.
func (s *Source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.tap, s.feed = 0, ringLen-ringTap
	s.seed = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// word returns ring word i, seeding it if this is its first touch.
func (s *Source) word(i int) int64 {
	if s.filled[i>>6]&(1<<(i&63)) == 0 {
		x := s.seed * jump[i] % lehmerM
		u := int64(x) << 40
		x = x * lehmerA % lehmerM
		u ^= int64(x) << 20
		x = x * lehmerA % lehmerM
		s.vec[i] = u ^ int64(x) ^ rngCooked[i]
		s.filled[i>>6] |= 1 << (i & 63)
	}
	return s.vec[i]
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += ringLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += ringLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63) }
