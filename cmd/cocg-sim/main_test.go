package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// goldenDigest is the SHA-256 of the masked `cocg-sim -policy all -seed 1`
// report. Moving it is a visible edit of this line, made only when the
// simulation's output is meant to change.
const goldenDigest = "49c0c6223d7f0e3cf5039be8b38e6b6af7edcd9a391e04dd2b6c809b58ada03e"

// The report's wall-clock text: the training time line and each policy's
// run time.
var (
	readyLine = regexp.MustCompile(`(?m)^system ready in .*\n`)
	ranIn     = regexp.MustCompile(` \(ran in [^)]*\)`)
)

// TestGoldenAllPolicies runs every policy at the default shape and checks
// the output, wall-clock text masked, against goldenDigest.
func TestGoldenAllPolicies(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-policy", "all", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	masked := ranIn.ReplaceAllString(readyLine.ReplaceAllString(out.String(), ""), "")
	sum := sha256.Sum256([]byte(masked))
	if got := hex.EncodeToString(sum[:]); got != goldenDigest {
		path := "(not saved)"
		if f, err := os.CreateTemp("", "cocg-sim-golden-*.txt"); err == nil {
			if _, err := f.WriteString(masked); err == nil {
				path = f.Name()
			}
			_ = f.Close()
		}
		t.Errorf("masked output digest = %s, want %s; masked output in %s", got, goldenDigest, path)
	}
}

// runMainEnv makes the test binary run main instead of the tests, so a test
// can drive the command end to end in a child process.
const runMainEnv = "COCG_SIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rejects runs the command with args in a child process and fails the test
// unless it exits with status 2, prints want on stderr (and no panic), and
// prints nothing on stdout: the flags are checked before any training.
func rejects(t *testing.T, want string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2", err)
	}
	if msg := stderr.String(); !strings.Contains(msg, want) || strings.Contains(msg, "panic") {
		t.Errorf("stderr = %q, want %q", msg, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing: the flags are checked before training", stdout.String())
	}
}

// TestRejectsBadRate pins the -rate check: a negative or non-finite rate is a
// usage error, not a panic inside the arrival stream.
func TestRejectsBadRate(t *testing.T) {
	for _, rate := range []string{"-1", "NaN", "+Inf", "-Inf"} {
		t.Run(rate, func(t *testing.T) {
			rejects(t, "-rate must be finite and non-negative", "-rate", rate)
		})
	}
}

// TestRejectsBadRunSize pins the checks on the run's size: an empty cluster,
// an empty or non-finite horizon and a negative session count are usage
// errors, not a simulation of nothing that exits 0.
func TestRejectsBadRunSize(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-servers", "0", "-servers must be at least 1"},
		{"-servers", "-3", "-servers must be at least 1"},
		{"-hours", "0", "-hours must be finite and positive"},
		{"-hours", "-1", "-hours must be finite and positive"},
		{"-hours", "NaN", "-hours must be finite and positive"},
		{"-hours", "+Inf", "-hours must be finite and positive"},
		{"-sessions", "-5", "-sessions must be non-negative"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			rejects(t, tc.want, tc.flag, tc.value)
		})
	}
}
