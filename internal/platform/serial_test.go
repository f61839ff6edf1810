package platform_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
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

// TestPlatformRefinements is a ratchet on the optional interfaces the platform
// discovers by type assertion: its non-test files may assert only the
// Controller refinement HardCapper. Placement needs nothing beyond
// Policy.Score, and a policy cache stamps itself off the server's own
// counters; a new refinement has to be allowed here on purpose.
func TestPlatformRefinements(t *testing.T) {
	allowed := map[string]bool{"HardCapper": true}
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	asserted := map[string]bool{}
	note := func(typ ast.Expr) {
		if id, ok := typ.(*ast.Ident); ok {
			asserted[id.Name] = true
		}
	}
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					note(n.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					for _, typ := range clause.(*ast.CaseClause).List {
						note(typ)
					}
				}
			}
			return true
		})
	}
	var extra []string
	for name := range asserted {
		if !allowed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("platform type-asserts %v beyond HardCapper", extra)
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

// TestRoutingIsSerial keeps the coordinator's routing decision one serial
// loop: it ranks a handful of regions per session, where a fan-out costs more
// than the scan it splits.
func TestRoutingIsSerial(t *testing.T) {
	forbidImports(t, []string{"../coordinator"},
		map[string]bool{"cocg/internal/parallel": true},
		"RankInto scores every region on the caller's goroutine")
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
