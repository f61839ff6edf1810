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
const runMainEnv = "COCG_LOADGEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadConcurrency pins the -c check: a concurrency below 1 is a
// usage error (a message and exit status 2), not a banner announcing "0 in
// flight" over a run that uses GOMAXPROCS. The check comes before any dial,
// so the test needs no server; the address is one nothing listens on.
func TestRejectsBadConcurrency(t *testing.T) {
	for _, c := range []string{"0", "-5"} {
		t.Run(c, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:1", "-c", c)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2 (stderr %q)", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "-c must be positive") {
				t.Errorf("stderr = %q, want the -c usage message", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing: -c is checked before the banner", stdout.String())
			}
		})
	}
}
