package predictor

import (
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// TestForecastDemandIntoMatchesFresh drives a live session and, at every few
// seconds, compares the scratch-reusing forecast against a freshly allocated
// one: buffer reuse must never change a value. It simultaneously checks the
// ForecastRev contract the distributor's cache rests on — while the revision
// is unchanged, the forecast timeline is bit-identical to the previous one.
func TestForecastDemandIntoMatchesFresh(t *testing.T) {
	tr := trainedFor(t, gamesim.Contra())
	sess, err := gamesim.NewSession(tr.Spec, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := tr.NewSessionPredictor(Config{})
	if err != nil {
		t.Fatal(err)
	}

	const horizon = 120
	var scratch ForecastScratch
	var buf []resources.Vector
	var prev []resources.Vector
	prevRev := pr.ForecastRev()
	revBumps := 0
	checks := 0
	for i := 0; i < 4*3600 && !sess.Done(); i++ {
		demand := sess.Demand()
		pr.Observe(demand)
		sess.Step(pr.Alloc())

		fresh := pr.ForecastDemand(horizon)
		buf = pr.ForecastDemandInto(horizon, buf, &scratch)
		if len(fresh) != len(buf) {
			t.Fatalf("t=%d: reused forecast length %d != fresh %d", i, len(buf), len(fresh))
		}
		for ti := range fresh {
			if fresh[ti] != buf[ti] {
				t.Fatalf("t=%d frame %d: reused %v != fresh %v", i, ti, buf[ti], fresh[ti])
			}
		}
		rev := pr.ForecastRev()
		if rev == prevRev && prev != nil {
			for ti := range fresh {
				if fresh[ti] != prev[ti] {
					t.Fatalf("t=%d frame %d: forecast changed (%v -> %v) with ForecastRev unchanged at %d",
						i, ti, prev[ti], fresh[ti], rev)
				}
			}
		}
		if rev != prevRev {
			revBumps++
		}
		prevRev = rev
		prev = append(prev[:0], fresh...)
		checks++
	}
	if checks == 0 {
		t.Fatal("session produced no forecasts")
	}
	if revBumps == 0 {
		t.Fatal("ForecastRev never advanced over a whole session")
	}
}

// forecastBenchPredictors returns one predictor per game × script, each
// stopped at a different point of its session: the mix of histories, running
// stages and loading gaps the distributor forecasts from.
func forecastBenchPredictors(b *testing.B) []*Predictor {
	var prs []*Predictor
	for gi, spec := range gamesim.AllGames() {
		tr := trainedFor(b, spec)
		for script := range spec.Scripts {
			sess, err := gamesim.NewSession(spec, script, int64(77+script))
			if err != nil {
				b.Fatal(err)
			}
			pr, err := tr.NewSessionPredictor(Config{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 200+137*(gi+3*script) && !sess.Done(); i++ {
				pr.Observe(sess.Demand())
				sess.Step(pr.Alloc())
			}
			prs = append(prs, pr)
		}
	}
	return prs
}

func BenchmarkForecastDemandInto(b *testing.B) {
	prs := forecastBenchPredictors(b)
	var scratch ForecastScratch
	var dst []resources.Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = prs[i%len(prs)].ForecastDemandInto(120, dst, &scratch)
	}
}

func BenchmarkAppendForecastRuns(b *testing.B) {
	prs := forecastBenchPredictors(b)
	var scratch ForecastScratch
	var runs []Segment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs = prs[i%len(prs)].AppendForecastRuns(runs[:0], 120, &scratch)
	}
}
