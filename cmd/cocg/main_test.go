package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"cocg/internal/experiments"
)

// goldenDigest is the SHA-256 of the masked `cocg -seed 1` report: the
// reproduction a reader of the paper runs. Moving it is a visible edit of
// this line, made only when the output is meant to change.
const goldenDigest = "c81469cd3782c1d116ae7aa5e1e862a329d36c065a0cf79574db351af15ce83c"

// The report's wall-clock text: the training and total time lines, each
// experiment's run time and the resolved job count.
var (
	timeLines = regexp.MustCompile(`(?m)^(trained in |total: ).*\n`)
	jobTimes  = regexp.MustCompile(`(?m)^(=== \S+) \(.*\) ===$`)
	jobCount  = regexp.MustCompile(`jobs=\d+\)`)
)

// mask strips the wall-clock text and nothing else.
func mask(out string) string {
	out = timeLines.ReplaceAllString(out, "")
	out = jobTimes.ReplaceAllString(out, "$1 ===")
	return jobCount.ReplaceAllString(out, "jobs=*)")
}

// TestGoldenSeed1 runs the full-scale suite at -jobs 1 and 2 and checks the
// masked output against goldenDigest.
func TestGoldenSeed1(t *testing.T) {
	for _, jobs := range []string{"1", "2"} {
		t.Run("jobs="+jobs, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"-seed", "1", "-jobs", jobs}, &out); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, mask(out.String()), goldenDigest)
		})
	}
}

// checkDigest fails with the new digest, and keeps the masked output in a
// temp file for the diff, when out does not hash to want.
func checkDigest(t *testing.T, out, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		path := "(not saved)"
		if f, err := os.CreateTemp("", "cocg-golden-*.txt"); err == nil {
			if _, err := f.WriteString(out); err == nil {
				path = f.Name()
			}
			_ = f.Close()
		}
		t.Errorf("masked output digest = %s, want %s; masked output in %s", got, want, path)
	}
}

// TestRunJobsStopsOnFailure hands the job runner an experiment that panics
// and one that errors, each second in a list of slow ones: the runner must
// return without hanging, name the experiment in its error, and leave no job
// running once it has returned.
func TestRunJobsStopsOnFailure(t *testing.T) {
	slow := experiments.Experiment{Name: "slow", Run: func(*experiments.Context) (fmt.Stringer, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, nil
	}}
	for _, bad := range []experiments.Experiment{
		{Name: "panics", Run: func(*experiments.Context) (fmt.Stringer, error) { panic("boom") }},
		{Name: "errs", Run: func(*experiments.Context) (fmt.Stringer, error) { return nil, errors.New("no result") }},
	} {
		for _, jobs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/jobs=%d", bad.Name, jobs), func(t *testing.T) {
				targets := []experiments.Experiment{slow, bad}
				for len(targets) < 50 {
					targets = append(targets, slow)
				}
				before := runtime.NumGoroutine()
				done := make(chan error, 1)
				go func() { done <- runJobs(nil, targets, jobs, func(string, fmt.Stringer, time.Duration) {}) }()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("runner still blocked after 10 s")
				}
				if err == nil || !strings.HasPrefix(err.Error(), bad.Name+": ") {
					t.Fatalf("runner error %v, want one naming %q", err, bad.Name)
				}
				// The 48 slow jobs left would take at least 480 ms: a runner
				// that still queued them would not settle within 200 ms.
				deadline := time.Now().Add(200 * time.Millisecond)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("goroutines: %d before the runner, %d after it returned", before, runtime.NumGoroutine())
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
