package streaming

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoSyncPoolInProgramCode keeps program code free of sync.Pool. Each
// session owns its frame batches and each connection its codec buffers, so
// no delivery state is shared between sessions, and the poolcheck analyzer
// that kept shared pools safe was deleted with the last pool. It scans every
// non-test .go file under internal/ and cmd/.
func TestNoSyncPoolInProgramCode(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, pos := range syncPoolUses(f) {
				t.Errorf("%s: sync.Pool in program code; restore the poolcheck analyzer "+
					"(internal/lint/poolcheck.go, its testdata and golden tests, from commit 0b554ac) "+
					"before adding a pool, or give each owner its own buffer", fset.Position(pos))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// syncPoolUses returns the position of every sync.Pool reference in f,
// under whatever name f imports "sync".
func syncPoolUses(f *ast.File) []token.Pos {
	name := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
			name = "sync"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var uses []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				uses = append(uses, sel.Pos())
			}
		}
		return true
	})
	return uses
}
