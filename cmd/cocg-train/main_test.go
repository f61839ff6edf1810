package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main instead of the tests, so a test
// can drive the command end to end in a child process.
const runMainEnv = "COCG_TRAIN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process, with env added to
// the environment, and returns its stdout, stderr and exit status.
func runMain(t *testing.T, env []string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), runMainEnv+"=1"), env...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestRejectsBadCorpusSize pins the -players/-sessions check: a count below 1
// is a usage error (a message and exit status 2, before any training), not a
// silent fall-back to the package default the banner would misreport.
func TestRejectsBadCorpusSize(t *testing.T) {
	for _, args := range [][]string{{"-players", "-1"}, {"-players", "0"}, {"-sessions", "0"}, {"-sessions", "-4"}} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "sys.gz")
			stdout, stderr, code := runMain(t, nil, append([]string{"-o", out}, args...)...)
			if code != 2 {
				t.Fatalf("exit status %d, want 2 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, "-players and -sessions must be at least 1") {
				t.Errorf("stderr = %q, want the usage message", stderr)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want nothing: the sizes are checked before training", stdout)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("bundle written despite the usage error (stat: %v)", err)
			}
		})
	}
}

// TestBannerPrintsWorkersUsed: a -jobs below 1 means GOMAXPROCS, and the
// banner reports the count that runs, not the flag's raw value.
func TestBannerPrintsWorkersUsed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sys.gz")
	stdout, stderr, code := runMain(t, []string{"GOMAXPROCS=3"},
		"-o", out, "-players", "1", "-sessions", "1", "-jobs", "-3", "Contra")
	if code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr)
	}
	if want := "training 1 games (1 players x 1 sessions each, 3 workers)"; !strings.Contains(stdout, want) {
		t.Errorf("banner = %q, want %q", stdout, want)
	}
}
