package lazyrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// drawMixed draws n values from both generators through every rand.Rand
// method the repo's short-lived generators use, failing at the first
// difference. The reference is always the installed math/rand, never a stored
// constant: this comparison is what stands between a Go release that changes
// the generator and a silent change of every digest.
func drawMixed(t *testing.T, got, want *rand.Rand, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 4:
			g, w = got.Intn(1+i), want.Intn(1+i)
		case 5:
			gp, wp := got.Perm(5), want.Perm(5)
			g, w = [5]int(gp), [5]int(wp)
		case 6:
			var gs, ws [6]int
			got.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b]+a, gs[a]+b })
			want.Shuffle(len(ws), func(a, b int) { ws[a], ws[b] = ws[b]+a, ws[a]+b })
			g, w = gs, ws
		}
		if g != w {
			t.Fatalf("%s: draw %d (kind %d): lazyrand %v, math/rand %v", label, i, i%7, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 1 << 40, -(1 << 40), lehmerM - 1, lehmerM, lehmerM + 1, 2 * lehmerM,
		zeroSeed, math.MinInt64, math.MaxInt64,
	}
	for _, seed := range seeds {
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		// 3 500 draws of which several take more than one ring step: the
		// 607-word ring wraps more than five times.
		drawMixed(t, got, want, 3500, "fresh")

		// A re-seed mid-stream forgets every word, filled or fed back.
		next := seed ^ 0x5DEECE66D
		got.Seed(next)
		want.Seed(next)
		drawMixed(t, got, want, 700, "re-seeded")
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(-7), uint16(700))
	f.Add(int64(lehmerM), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % 2000
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		drawMixed(t, got, want, n, "fresh")
		got.Seed(seed + int64(draws))
		want.Seed(seed + int64(draws))
		drawMixed(t, got, want, n/4, "re-seeded")
	})
}

// BenchmarkSourceSeedAndDraw is the cost a short-lived generator pays: seed,
// then draw n values. math/rand pays the whole ring up front whatever n is.
func BenchmarkSourceSeedAndDraw(b *testing.B) {
	for _, n := range []int{8, 64, 1024} {
		for _, impl := range []struct {
			name string
			new  func(int64) rand.Source
		}{
			{"lazyrand", func(seed int64) rand.Source { return NewSource(seed) }},
			{"mathrand", rand.NewSource},
		} {
			b.Run(fmt.Sprintf("%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					r := rand.New(impl.new(int64(i)))
					for k := 0; k < n; k++ {
						sink += r.Float64()
					}
				}
				_ = sink
			})
		}
	}
}
