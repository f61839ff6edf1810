package experiments

import (
	"fmt"
	"testing"

	"cocg/internal/parallel"
)

// runHarness renders every experiment, either serially or as concurrent
// jobs over the shared context — the same fan-out cmd/cocg performs.
func runHarness(t *testing.T, ctx *Context, jobs int) map[string]string {
	t.Helper()
	out := make([]string, len(All))
	g := parallel.NewGroup(jobs)
	for i := range All {
		i := i
		g.Go(func() error {
			res, err := All[i].Run(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", All[i].Name, err)
			}
			out[i] = res.String()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for i, e := range All {
		m[e.Name] = out[i]
	}
	return m
}

// TestHarnessDeterministicAcrossJobCounts is the acceptance gate for the
// parallel pipeline: a fixed seed must render every experiment identically
// whether the system trains and runs with 1 worker or 8, and whether the
// experiments execute one at a time or concurrently over a shared context.
func TestHarnessDeterministicAcrossJobCounts(t *testing.T) {
	const seed = 17
	ctx1, err := NewContext(Options{Seed: seed, Fast: true, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx8, err := NewContext(Options{Seed: seed, Fast: true, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial := runHarness(t, ctx1, 1)
	parallel8 := runHarness(t, ctx8, 8)
	for _, e := range All {
		if serial[e.Name] != parallel8[e.Name] {
			t.Errorf("%s renders differently at jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				e.Name, serial[e.Name], parallel8[e.Name])
		}
	}
	// A re-run over the already-used jobs=8 context must also match: no
	// experiment may have mutated shared state.
	again := runHarness(t, ctx8, 8)
	for _, e := range All {
		if again[e.Name] != parallel8[e.Name] {
			t.Errorf("%s is not idempotent over a shared context", e.Name)
		}
	}
}
