// Command cocg-lint runs CoCG's repo-specific determinism and correctness
// analyzers over the module and exits non-zero on any finding.
//
//	cocg-lint [flags] [packages]
//
// Packages are go-list patterns relative to the module root (default ./...).
// Findings print one per line as
//
//	file:line:col [analyzer] message
//
// and can be suppressed at a specific line with
//
//	//cocg:lint-ignore <analyzer> <reason>
//
// See docs/STATIC_ANALYSIS.md for the analyzer catalogue and rationale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cocg/internal/lint"
)

func main() {
	var (
		dir     = flag.String("C", ".", "module root directory to lint")
		run     = flag.String("run", "", "comma-separated analyzers to run (default: all)")
		list    = flag.Bool("list", false, "list available analyzers and exit")
		quiet   = flag.Bool("q", false, "suppress the summary line on stderr")
		relBase = flag.String("rel", "", "print file paths relative to this directory (default: current directory)")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array of {file,line,col,analyzer,message}")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cocg-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs CoCG's determinism & correctness analyzers; exits 1 on any finding.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*run)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadPackages(flag.Args()...)
	if err != nil {
		fatal(err)
	}

	// One -gcflags=-m compile feeds hotalloc and hotinline across every
	// package; on unchanged code cmd/go replays the cached compiler output, so
	// this stays well inside the lint-gate time budget.
	escapes, err := lint.LoadEscapes(loader.ModuleDir, pkgs)
	if err != nil {
		fatal(err)
	}

	base := *relBase
	if base == "" {
		base, _ = os.Getwd()
	}
	findings := lint.RunWith(pkgs, analyzers, lint.Options{Escapes: escapes})
	for i := range findings {
		if base != "" {
			if rel, err := filepath.Rel(base, findings[i].Pos.Filename); err == nil {
				findings[i].Pos.Filename = rel
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "cocg-lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "cocg-lint: %d package(s) clean\n", len(pkgs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cocg-lint:", err)
	os.Exit(2)
}
