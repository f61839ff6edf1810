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
const runMainEnv = "COCG_PROFILE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags pins the -players and -k checks: an empty corpus, a
// negative cluster count and one above profiler.MaxClusters are usage errors
// (a message and exit status 2) raised before any trace is recorded, not a
// late "no traces" failure, a silent elbow selection or a failure after the
// whole corpus is recorded.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-players", "0", "-players must be at least 1"},
		{"-players", "-2", "-players must be at least 1"},
		{"-k", "-3", "-k must be 0 (elbow selection) or 1..64"},
		{"-k", "65", "-k must be 0 (elbow selection) or 1..64"},
		{"-k", "99", "-k must be 0 (elbow selection) or 1..64"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.flag, tc.value, "Contra")
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2 (stderr %q)", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing: the flags are checked before recording", stdout.String())
			}
		})
	}
}
