package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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
