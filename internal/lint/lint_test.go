package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// sharedLoader builds one Loader per test binary; its export-data closure
// (the module's own dependencies) covers everything the testdata imports.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(moduleRoot(t))
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// loadTestdata type-checks testdata/src/<dir> under the given import path.
func loadTestdata(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	pkg, err := sharedLoader(t).CheckDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading testdata/src/%s: %v", dir, err)
	}
	return pkg
}

// want expectations are inline comments of the form
//
//	// want `regexp` `regexp` ...
//
// where each regexp must match one finding rendered as "[analyzer] message"
// on the comment's line.
type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantToken = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

func collectWants(t *testing.T, pkg *Package) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				_, spec, found := strings.Cut(c.Text, "want ")
				if !found {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				toks := wantToken.FindAllString(spec, -1)
				if len(toks) == 0 {
					t.Fatalf("%s:%d: want comment without a quoted pattern", pos.Filename, pos.Line)
				}
				for _, tok := range toks {
					re, err := regexp.Compile(tok[1 : len(tok)-1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
					}
					wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkGolden runs the analyzers over the package and compares findings
// against the // want comments: every finding needs a matching want on its
// line, and every want must be consumed.
func checkGolden(t *testing.T, pkg *Package, analyzers []*Analyzer) {
	t.Helper()
	checkGoldenWith(t, pkg, analyzers, Options{})
}

func checkGoldenWith(t *testing.T, pkg *Package, analyzers []*Analyzer, opts Options) {
	t.Helper()
	wants := collectWants(t, pkg)
	findings := RunWith([]*Package{pkg}, analyzers, opts)
	for _, f := range findings {
		rendered := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(rendered) {
				w.matched, ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "maporder", "cocg/internal/maporderlike"), []*Analyzer{MapOrder})
}

func TestGlobalRandGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "globalrand", "cocg/internal/randlike"), []*Analyzer{GlobalRand})
}

func TestWallTimeGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "walltime", "cocg/internal/schedlike"), []*Analyzer{WallTime})
}

// TestWallTimeExemptions loads wall-clock-reading code under every path class
// that is allowed to read real time and expects silence.
func TestWallTimeExemptions(t *testing.T) {
	for _, path := range []string{"cocg/internal/streaming", "cocg/internal/telemetry", "cocg/cmd/tool", "cocg"} {
		pkg := loadTestdata(t, "walltime_exempt", path)
		if fs := Run([]*Package{pkg}, []*Analyzer{WallTime}); len(fs) != 0 {
			t.Errorf("path %s: unexpected findings: %v", path, fs)
		}
	}
}

func TestRawGoGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "rawgo", "cocg/internal/rawgolike"), []*Analyzer{RawGo})
}

// TestRawGoExemptions mirrors TestWallTimeExemptions for goroutine fan-out.
func TestRawGoExemptions(t *testing.T) {
	for _, path := range []string{"cocg/internal/parallel", "cocg/internal/streaming", "cocg/cmd/tool"} {
		pkg := loadTestdata(t, "rawgo_exempt", path)
		if fs := Run([]*Package{pkg}, []*Analyzer{RawGo}); len(fs) != 0 {
			t.Errorf("path %s: unexpected findings: %v", path, fs)
		}
	}
}

func TestDroppedErrGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "droppederr", "cocg/internal/errlike"), []*Analyzer{DroppedErr})
}

// TestIgnoreDirectives checks the suppression contract: an inline ignore
// suppresses exactly the finding on its line, the standalone form suppresses
// the line below, and a directive that suppresses nothing is itself reported.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadTestdata(t, "ignore", "cocg/internal/ignorelike")
	checkGolden(t, pkg, []*Analyzer{GlobalRand})

	// The golden pass already pins the surviving findings; additionally pin
	// the exact count so a blanket suppression bug cannot sneak through.
	findings := Run([]*Package{pkg}, []*Analyzer{GlobalRand})
	var globalrand, unused int
	for _, f := range findings {
		switch f.Analyzer {
		case GlobalRand.Name:
			globalrand++
		case UnusedIgnoreAnalyzer:
			unused++
		default:
			t.Errorf("unexpected analyzer %q in %s", f.Analyzer, f)
		}
	}
	if globalrand != 1 || unused != 1 {
		t.Errorf("got %d globalrand + %d unusedignore findings, want exactly 1 + 1:\n%v", globalrand, unused, findings)
	}
}

func TestLockOrderGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "lockorder", "cocg/internal/locklike"), []*Analyzer{LockOrder})
}

// TestLockOrderEdgeCases covers the held-set subtleties one golden package
// each: deferred unlocks, TryLock guard forms, and lock methods bound as
// values.
func TestLockOrderEdgeCases(t *testing.T) {
	for _, dir := range []string{"lockorder_defer", "lockorder_trylock", "lockorder_methodvalue"} {
		checkGolden(t, loadTestdata(t, dir, "cocg/internal/"+dir), []*Analyzer{LockOrder})
	}
}

func TestGoLeakGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "goleak", "cocg/internal/goleaklike"), []*Analyzer{GoLeak})
}

// TestGoLeakInternalOnly loads the same leaky code outside internal/ and
// expects silence: front-ends own their goroutine hygiene.
func TestGoLeakInternalOnly(t *testing.T) {
	pkg := loadTestdata(t, "goleak", "cocg/cmd/tool")
	if fs := Run([]*Package{pkg}, []*Analyzer{GoLeak}); len(fs) != 0 {
		t.Errorf("unexpected findings outside internal/: %v", fs)
	}
}

func TestAtomicMixGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "atomicmix", "cocg/internal/atomiclike"), []*Analyzer{AtomicMix})
}

// TestHotAllocGolden fabricates compiler escape output from the ESCAPE
// markers in the golden file — the same file:line:col text `go build
// -gcflags=-m` emits — and checks that diagnostics land only inside
// //cocg:hot bodies.
func TestHotAllocGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "src", "hotalloc", "hot.go")
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for i, line := range strings.Split(string(raw), "\n") {
		_, rest, found := strings.Cut(line, "// ESCAPE:")
		if !found {
			continue
		}
		msg := rest
		if j := strings.Index(msg, " -- want"); j >= 0 {
			msg = msg[:j]
		}
		fmt.Fprintf(&out, "%s:%d:2: %s\n", goldenPath, i+1, strings.TrimSpace(msg))
	}
	if out.Len() == 0 {
		t.Fatal("no ESCAPE markers in golden file")
	}
	data := &EscapeData{}
	ParseEscapes(data, "", out.String())

	pkg := loadTestdata(t, "hotalloc", "cocg/internal/hotlike")
	checkGoldenWith(t, pkg, []*Analyzer{HotAlloc}, Options{Escapes: data})

	// Without escape data the analyzer is inert, not wrong.
	if fs := Run([]*Package{pkg}, []*Analyzer{HotAlloc}); len(fs) != 0 {
		t.Errorf("hotalloc without escape data produced findings: %v", fs)
	}
}

// TestHotAllocNegative is the gate's end-to-end proof: a scratch module with
// an artificial escape inside a //cocg:hot function, compiled with the real
// LoadEscapes pipeline, must fail the analyzer.
func TestHotAllocNegative(t *testing.T) {
	findings := scratchModuleFindings(t, HotAlloc, `package scratch

var sink *[64]byte

// Escapes claims to be allocation-free but leaks its stack frame.
//
//cocg:hot
func Escapes() *[64]byte {
	var b [64]byte
	return &b
}
`)
	if len(findings) == 0 {
		t.Fatal("artificial escape in a //cocg:hot function produced no hotalloc finding")
	}
	for _, f := range findings {
		if f.Analyzer != HotAlloc.Name || !strings.Contains(f.Message, "Escapes") {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// scratchModuleFindings writes src as the only file of a scratch module,
// compiles it through the real LoadEscapes pipeline and returns what the
// analyzer reports.
func scratchModuleFindings(t *testing.T, a *Analyzer, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{"go.mod": "module scratch\n\ngo 1.22\n", "scratch.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPackages("./...")
	if err != nil {
		t.Fatal(err)
	}
	escapes, err := LoadEscapes(loader.ModuleDir, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	return RunWith(pkgs, []*Analyzer{a}, Options{Escapes: escapes})
}

// TestHotInlineGolden fabricates the compiler's `can inline` lines from the
// INLINE markers in the golden file and checks that exactly the annotated
// function without one is reported.
func TestHotInlineGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "src", "hotinline", "inline.go")
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for i, line := range strings.Split(string(raw), "\n") {
		if _, name, found := strings.Cut(line, "// INLINE:"); found {
			fmt.Fprintf(&out, "%s:%d:6: can inline %s\n", goldenPath, i+1, strings.TrimSpace(name))
		}
	}
	if out.Len() == 0 {
		t.Fatal("no INLINE markers in golden file")
	}
	data := &EscapeData{}
	ParseEscapes(data, "", out.String())

	pkg := loadTestdata(t, "hotinline", "cocg/internal/inlinelike")
	checkGoldenWith(t, pkg, []*Analyzer{HotInline}, Options{Escapes: data})

	// Without compiler output the analyzer is inert, not wrong.
	if fs := Run([]*Package{pkg}, []*Analyzer{HotInline}); len(fs) != 0 {
		t.Errorf("hotinline without compiler output produced findings: %v", fs)
	}
}

// TestHotInlineNegative is the gate's end-to-end proof: a scratch module whose
// only directive is //cocg:inline (so the package is compiled for that alone),
// run through the real LoadEscapes pipeline, must pass the function the
// compiler can inline and fail the one it cannot.
func TestHotInlineNegative(t *testing.T) {
	findings := scratchModuleFindings(t, HotInline, `package scratch

// Small is what the annotation is for.
//
//cocg:inline
func Small(a, b float64) float64 { return a + b }

// Recursive claims to be inlinable; no recursive function is.
//
//cocg:inline
func Recursive(n int) int {
	if n <= 1 {
		return 1
	}
	return n * Recursive(n-1)
}
`)
	if len(findings) != 1 || findings[0].Analyzer != HotInline.Name || !strings.Contains(findings[0].Message, "function Recursive ") {
		t.Fatalf("got findings %v, want exactly one hotinline finding, for Recursive", findings)
	}
}

// TestHotVectorGolden checks that exactly the resources.Vector locals of
// //cocg:hot bodies are reported: not V4 locals, not the function's own
// parameters or results, not struct fields, not unannotated functions.
func TestHotVectorGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "hotvector", "cocg/internal/vectorlike"), []*Analyzer{HotVector})
}

// TestFindingJSONSchema pins the machine-readable shape `cocg-lint -json`
// emits for CI annotation: exactly file/line/col/analyzer/message.
func TestFindingJSONSchema(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "internal/x/x.go", Line: 3, Column: 7},
		Analyzer: "maporder",
		Message:  "append inside map iteration",
	}
	b, err := json.Marshal([]Finding{f})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("got %d elements, want 1", len(decoded))
	}
	got := decoded[0]
	want := map[string]any{
		"file":     "internal/x/x.go",
		"line":     float64(3),
		"col":      float64(7),
		"analyzer": "maporder",
		"message":  "append inside map iteration",
	}
	if len(got) != len(want) {
		t.Errorf("schema has keys %v, want exactly file/line/col/analyzer/message", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("field %q = %v, want %v", k, got[k], v)
		}
	}
}

// TestByName covers the analyzer registry used by the -run flag.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("maporder, droppederr")
	if err != nil || len(two) != 2 || two[0] != MapOrder || two[1] != DroppedErr {
		t.Fatalf("ByName list = %v, err %v", two, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(\"nope\") should fail")
	}
}

// TestRepoIsClean runs the full analyzer set over the whole module — the
// same gate `make lint` enforces — so `go test` alone catches regressions.
func TestRepoIsClean(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadPackages("./...")
	if err != nil {
		t.Fatal(err)
	}
	escapes, err := LoadEscapes(l.ModuleDir, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunWith(pkgs, All(), Options{Escapes: escapes}) {
		t.Errorf("finding in repo: %s", f)
	}
}

// TestLoadPackages sanity-checks the go-list-based loader itself.
func TestLoadPackages(t *testing.T) {
	l := sharedLoader(t)
	if l.ModulePath != "cocg" {
		t.Fatalf("module path = %q, want cocg", l.ModulePath)
	}
	pkgs, err := l.LoadPackages("./internal/simclock")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "cocg/internal/simclock" {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
	if len(pkgs[0].Files) == 0 || pkgs[0].Types == nil {
		t.Fatal("package loaded without files or type info")
	}
	var _ *ast.File = pkgs[0].Files[0]
}
