package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"regexp"
	"strings"
	"testing"
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
