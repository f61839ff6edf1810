package predictor

import (
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// TestForecastDemandIntoMatchesFresh drives a live session and, every second,
// compares the scratch-reusing forecast against one made with a fresh scratch
// into fresh storage: buffer reuse must never change a value. It also checks
// the contract the distributor's tick-stamped cache rests on: over a second
// in which Observe completes no detection frame, the forecast timeline is
// bit-identical to the previous one.
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
	frames := 0
	checks := 0
	for i := 0; i < 4*3600 && !sess.Done(); i++ {
		demand := sess.Demand()
		_, completed := pr.Observe(demand)
		alloc := pr.Alloc()
		sess.Step(alloc.Load())

		fresh := pr.ForecastDemandInto(horizon, nil, &ForecastScratch{})
		buf = pr.ForecastDemandInto(horizon, buf, &scratch)
		if len(fresh) != len(buf) {
			t.Fatalf("t=%d: reused forecast length %d != fresh %d", i, len(buf), len(fresh))
		}
		for ti := range fresh {
			if fresh[ti] != buf[ti] {
				t.Fatalf("t=%d frame %d: reused %v != fresh %v", i, ti, buf[ti], fresh[ti])
			}
		}
		if !completed && prev != nil {
			for ti := range fresh {
				if fresh[ti] != prev[ti] {
					t.Fatalf("t=%d frame %d: forecast changed (%v -> %v) with no detection frame completed",
						i, ti, prev[ti], fresh[ti])
				}
			}
		}
		if completed {
			frames++
		}
		prev = append(prev[:0], fresh...)
		checks++
	}
	if checks == 0 {
		t.Fatal("session produced no forecasts")
	}
	if frames == 0 {
		t.Fatal("no detection frame completed over a whole session")
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
				alloc := pr.Alloc()
				sess.Step(alloc.Load())
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
