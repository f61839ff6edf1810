package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckFileFlagsMissingTestNames runs the test-name check over a
// temporary tree: one _test.go file declares TestPresent, and a markdown
// file cites it, a prefix of it, a name no func starts with, and a name in a
// fenced block (literal syntax, not a citation).
func TestCheckFileFlagsMissingTestNames(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("x_test.go", "package x\n\nimport \"testing\"\n\nfunc TestPresent(t *testing.T) {}\n")
	doc := write("doc.md", "Run `TestPresent` or `go test -run TestPres*`.\n"+
		"`TestMissing` was deleted.\n"+
		"```\nTestAlsoMissing\n```\n")

	funcs, err := testFuncs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if funcs != "\nTestPresent" {
		t.Fatalf("test funcs %q, want one line, TestPresent", funcs)
	}
	broken, checked, err := checkFile(doc, dir, funcs)
	if err != nil {
		t.Fatal(err)
	}
	if broken != 1 || checked != 3 {
		t.Errorf("broken %d of %d checked, want 1 of 3 (only TestMissing)", broken, checked)
	}
}

// TestRepositoryDocsResolve runs the check `make docs-check` runs over the
// repository root, so a doc citing a deleted test, benchmark or heading
// fails go test ./... and not only make lint.
func TestRepositoryDocsResolve(t *testing.T) {
	broken, checked, files, err := check(filepath.Join("..", ".."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if broken > 0 || checked == 0 {
		t.Errorf("%d of %d links and test names across %d markdown files are broken (listed above)", broken, checked, files)
	}
}
