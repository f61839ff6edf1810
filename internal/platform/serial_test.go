package platform_test

import (
	"go/build"
	"testing"
)

// forbidImports fails when a non-test file of a package in dirs imports one
// of forbidden; why says what the import would break.
func forbidImports(t *testing.T, dirs []string, forbidden map[string]bool, why string) {
	t.Helper()
	for _, dir := range dirs {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if forbidden[imp] {
				t.Errorf("package %s imports %q outside its tests: %s", pkg.Name, imp, why)
			}
		}
	}
}

// TestSimulationCoreIsSerial keeps one cluster on one goroutine: the packages
// a cluster's advance loop runs through (the platform and every policy) must
// not import a synchronisation or fan-out package outside their tests.
// Parallelism belongs where nothing is shared — independent clusters, seeds,
// experiment cells and the games of the offline pass.
func TestSimulationCoreIsSerial(t *testing.T) {
	forbidImports(t, []string{".", "../scheduler", "../baselines"},
		map[string]bool{"sync": true, "sync/atomic": true, "cocg/internal/parallel": true},
		"a cluster advances on one goroutine")
}

// TestTrainingKernelsAreSerial keeps the offline pass's fan-out at the game:
// the packages one game's training runs through (model fitting, profiling,
// dataset extraction, the per-game pipeline) must not import the fan-out
// package outside their tests. core.Train trains games concurrently, and
// cluster.Sweep runs its K values concurrently; beneath them a clustering
// run or a model fit is a serial kernel on its caller's goroutine.
func TestTrainingKernelsAreSerial(t *testing.T) {
	forbidImports(t, []string{"../mlmodels", "../profiler", "../dataset", "../predictor"},
		map[string]bool{"cocg/internal/parallel": true},
		"training fans out over games only")
}
