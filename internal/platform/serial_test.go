package platform_test

import (
	"go/build"
	"testing"
)

// TestSimulationCoreIsSerial keeps one cluster on one goroutine: the packages
// a cluster's advance loop runs through (the platform and every policy) must
// not import a synchronisation or fan-out package outside their tests.
// Parallelism belongs where nothing is shared — independent clusters, seeds,
// experiment cells and training.
func TestSimulationCoreIsSerial(t *testing.T) {
	forbidden := map[string]bool{"sync": true, "sync/atomic": true, "cocg/internal/parallel": true}
	for _, dir := range []string{".", "../scheduler", "../baselines"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if forbidden[imp] {
				t.Errorf("package %s imports %q outside its tests: a cluster advances on one goroutine", pkg.Name, imp)
			}
		}
	}
}
