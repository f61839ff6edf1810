package lint

import (
	"go/ast"
	"go/types"
)

// HotVector reports every resources.Vector variable a //cocg:hot body
// declares (not the function's own parameters and results): such a local is
// copied through memory and stalls on store forwarding, where a resources.V4
// stays in registers (docs/STATIC_ANALYSIS.md, "hotvector").
var HotVector = &Analyzer{
	Name: "hotvector",
	Doc:  "local variables of type resources.Vector inside functions annotated //cocg:hot",
	Run:  runHotVector,
}

func runHotVector(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(file) || !hasDirective(fd, HotDirective) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if v, isVar := pass.Info.Defs[id].(*types.Var); ok && isVar && !v.IsField() &&
					types.TypeString(v.Type(), nil) == pass.Module+"/internal/resources.Vector" {
					pass.Reportf(id.Pos(), "resources.Vector local %s in //cocg:hot function %s; hold a resources.V4 and use Load/Store at storage (see docs/STATIC_ANALYSIS.md#hotvector--resourcesvector-locals-in-cocghot-functions)",
						id.Name, fd.Name.Name)
				}
				return true
			})
		}
	}
}
