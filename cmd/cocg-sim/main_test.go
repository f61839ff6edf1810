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

// TestRejectsBadRate pins the -rate check: a negative or non-finite rate is a
// usage error (a message and exit status 2, before any training), not a panic
// inside the arrival stream.
func TestRejectsBadRate(t *testing.T) {
	for _, rate := range []string{"-1", "NaN", "+Inf", "-Inf"} {
		t.Run(rate, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-rate", rate)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2", err)
			}
			if msg := stderr.String(); !strings.Contains(msg, "-rate must be finite and non-negative") || strings.Contains(msg, "panic") {
				t.Errorf("stderr = %q, want the -rate usage message", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing: the rate is checked before training", stdout.String())
			}
		})
	}
}
