package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// HotAlloc gates the zero-allocation invariants of the serving, routing,
// placement and inference paths.
// A function annotated
//
//	//cocg:hot
//
// declares "this body allocates nothing on the serving path"; the analyzer
// replays the compiler's escape analysis (`go build -gcflags=-m`) and fails
// the gate on any "escapes to heap" / "moved to heap" diagnostic inside an
// annotated body. A refactor that quietly boxes a value or lets a closure
// capture by reference now breaks `make lint` instead of a benchmark someone
// has to remember to run.
//
// Escape data comes from the driver (see LoadEscapes): one `go build` over
// just the packages that carry annotations, replayed from the build cache on
// unchanged code. When no escape data was supplied (golden tests construct
// their own; see lint_test.go) the analyzer is inert.
//
// Deliberate cold-path allocations inside a hot body — a grow path, an
// error construction — are suppressed line-by-line with
// //cocg:lint-ignore hotalloc and a reason.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "heap escapes inside functions annotated //cocg:hot (compiler -m output)",
	Run:  runHotAlloc,
}

// HotDirective is the comment that marks a function as allocation-free.
const HotDirective = "//cocg:hot"

// An EscapeDiag is one compiler escape-analysis diagnostic.
type EscapeDiag struct {
	Line, Col int
	Msg       string
}

// EscapeData holds what one `go build -gcflags=-m` said about the annotated
// packages: escape diagnostics grouped by absolute source filename (hotalloc)
// and the lines of the functions reported `can inline` (hotinline).
type EscapeData struct {
	byFile    map[string][]EscapeDiag
	inlinable map[funcLine]bool
}

// funcLine is where a function is declared: the line of its `func` keyword.
type funcLine struct {
	file string
	line int
}

// Add records one diagnostic for file (absolute path).
func (e *EscapeData) Add(file string, d EscapeDiag) {
	if e.byFile == nil {
		e.byFile = make(map[string][]EscapeDiag)
	}
	e.byFile[file] = append(e.byFile[file], d)
}

// ForFile returns the diagnostics recorded for an absolute filename.
func (e *EscapeData) ForFile(file string) []EscapeDiag {
	if e == nil {
		return nil
	}
	return e.byFile[file]
}

func runHotAlloc(pass *Pass) {
	if pass.Escapes == nil {
		return
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		tf := pass.Fset.File(file.Pos())
		if tf == nil {
			continue
		}
		diags := pass.Escapes.ForFile(tf.Name())
		if len(diags) == 0 {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd, HotDirective) {
				continue
			}
			lo := pass.Fset.Position(fd.Pos()).Line
			hi := pass.Fset.Position(fd.End()).Line
			for _, d := range diags {
				if d.Line < lo || d.Line > hi {
					continue
				}
				pass.Reportf(posForLineCol(tf, d.Line, d.Col),
					"heap escape in //cocg:hot function %s: %s; hot-path functions must not allocate (see docs/STATIC_ANALYSIS.md#hotalloc--escapes-in-cocghot-functions)",
					fd.Name.Name, d.Msg)
			}
		}
	}
}

// isDirective reports whether a comment's text is the given directive,
// alone or followed by free text.
func isDirective(text, directive string) bool {
	text = strings.TrimSpace(text)
	return text == directive || strings.HasPrefix(text, directive+" ")
}

// hasDirective reports whether fd carries the directive in its doc comment
// group.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if isDirective(c.Text, directive) {
			return true
		}
	}
	return false
}

// posForLineCol maps a compiler file:line:col back into the fileset so the
// finding lands where the escape is (and so same-line lint-ignore comments
// apply).
func posForLineCol(tf *token.File, line, col int) token.Pos {
	if line < 1 || line > tf.LineCount() {
		return tf.Pos(0)
	}
	p := tf.LineStart(line)
	return p + token.Pos(col-1)
}

// HotPackages returns the import paths of the packages that contain at least
// one //cocg:hot or //cocg:inline directive — the only ones worth recompiling
// for compiler diagnostics.
func HotPackages(pkgs []*Package) []string {
	var out []string
	for _, pkg := range pkgs {
		found := false
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if isDirective(c.Text, HotDirective) || isDirective(c.Text, inlineDirective) {
						found = true
					}
				}
			}
			if found {
				break
			}
		}
		if found {
			out = append(out, pkg.Path)
		}
	}
	return out
}

// LoadEscapes compiles the annotated packages with -gcflags=-m and collects
// the escape diagnostics. One build serves every analyzer pass; on unchanged
// code cmd/go replays the compiler output from the build cache, so repeated
// lint runs stay fast. Giving -gcflags no package pattern scopes it to the
// packages named on the command line, which is exactly the hot set.
func LoadEscapes(moduleDir string, pkgs []*Package) (*EscapeData, error) {
	hot := HotPackages(pkgs)
	data := &EscapeData{}
	if len(hot) == 0 {
		return data, nil
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, hot...)...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m %s: %v\n%s", strings.Join(hot, " "), err, stderr.String())
	}
	ParseEscapes(data, moduleDir, stderr.String())
	return data, nil
}

// ParseEscapes scans `go build -gcflags=-m` stderr for heap-escape
// diagnostics (`file:line:col: msg`) and `can inline` reports and records
// them against absolute filenames. Other -m chatter is dropped.
func ParseEscapes(data *EscapeData, moduleDir, output string) {
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		escape := strings.Contains(line, "escapes to heap") || strings.Contains(line, "moved to heap")
		inline := strings.Contains(line, ": can inline ")
		if !escape && !inline {
			continue
		}
		file, row, col, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file)
		}
		if !inline {
			data.Add(file, EscapeDiag{Line: row, Col: col, Msg: msg})
			continue
		}
		if data.inlinable == nil {
			data.inlinable = make(map[funcLine]bool)
		}
		data.inlinable[funcLine{file, row}] = true
	}
}

// splitDiag parses `file:line:col: message`.
func splitDiag(s string) (file string, line, col int, msg string, ok bool) {
	// Walk colon-separated fields from the left so Windows-free POSIX paths
	// with no embedded colons split unambiguously.
	i := strings.Index(s, ".go:")
	if i < 0 {
		return "", 0, 0, "", false
	}
	file = s[:i+3]
	rest := s[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, 0, "", false
	}
	line, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, 0, "", false
	}
	col, err = strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, "", false
	}
	return file, line, col, strings.TrimSpace(parts[2]), true
}
