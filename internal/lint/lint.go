// Package lint is CoCG's repo-specific static-analysis driver.
//
// The determinism harness introduced with the parallel worker pool made
// bit-identical results at every worker count a hard invariant, and it caught
// two latent map-iteration-order bugs only at runtime. This package moves that
// class of bug to lint time: it loads every package in the module with the
// standard library's go/parser + go/types (no external dependencies, fully
// offline) and runs a pluggable set of analyzers encoding the codebase's
// determinism and correctness invariants.
//
// Findings print as
//
//	file:line:col [analyzer] message
//
// and a finding can be suppressed at a specific line with an inline comment:
//
//	//cocg:lint-ignore <analyzer> <reason>
//
// The comment suppresses matching findings on its own line, or — when it
// stands alone — on the line directly below it. An ignore comment that
// suppresses nothing is itself reported (analyzer name "unusedignore") so
// stale suppressions cannot accumulate. See docs/STATIC_ANALYSIS.md.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check run over every loaded package.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //cocg:lint-ignore comments.
	Name string
	// Doc is a one-line description shown by `cocg-lint -list`.
	Doc string
	// Run inspects the package held by pass and reports findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass)
}

// All returns the full analyzer set in a deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		GlobalRand,
		WallTime,
		DroppedErr,
		RawGo,
		LockOrder,
		GoLeak,
		AtomicMix,
		HotAlloc,
		HotInline,
		HotVector,
	}
}

// ByName resolves a comma-separated analyzer list; an empty spec means All.
func ByName(spec string) ([]*Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical `file:line:col [analyzer] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// MarshalJSON renders the finding as the flat CI-annotation schema
// {file, line, col, analyzer, message} consumed by `cocg-lint -json`.
func (f Finding) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message})
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// PkgPath is the package's import path ("cocg/internal/scheduler").
	PkgPath string
	// Module is the module path ("cocg"); path-sensitive analyzers use it
	// to recognise internal/ packages.
	Module string

	// Escapes is the compiler -m output consumed by hotalloc and hotinline;
	// nil when the driver did not supply any (both are then inert).
	Escapes *EscapeData

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InternalPath reports whether the package lives under <module>/internal/
// and, if so, its path relative to the module root ("internal/scheduler").
func (p *Pass) InternalPath() (string, bool) {
	rel, ok := strings.CutPrefix(p.PkgPath, p.Module+"/")
	if !ok || !strings.HasPrefix(rel, "internal/") {
		return "", false
	}
	return rel, true
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// Analyzers whose invariants only bind production code (globalrand, walltime,
// droppederr, rawgo) skip those files.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Options carries driver-level inputs shared by every pass.
type Options struct {
	// Escapes feeds hotalloc and hotinline; build it once with LoadEscapes
	// so one compile serves the whole analyzer set.
	Escapes *EscapeData
}

// Run executes every analyzer over every package, applies //cocg:lint-ignore
// suppressions, and returns the surviving findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunWith(pkgs, analyzers, Options{})
}

// RunWith is Run with explicit driver options.
func RunWith(pkgs []*Package, analyzers []*Analyzer, opts Options) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		var pkgFindings []Finding
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				Module:   pkg.Module,
				Escapes:  opts.Escapes,
				findings: &pkgFindings,
			}
			a.Run(pass)
		}
		all = append(all, applyIgnores(pkg, pkgFindings)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}
