package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"
)

// DroppedErr flags statements that call a function returning an error and
// silently discard it: plain call statements, `go f()`, and `defer f()`.
// An explicit `_ = f()` is deliberate and not flagged. Two sinks are exempt
// because they are documented to never fail: the fmt print family (whose
// errors, when they matter, surface at the sink's Flush/Close — which this
// analyzer does check) and methods on bytes.Buffer / strings.Builder.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "call statements that discard a returned error",
	Run:  runDroppedErr,
}

func runDroppedErr(pass *Pass) {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = stmt.Call
			case *ast.DeferStmt:
				call = stmt.Call
			}
			if call == nil || !returnsError(pass, call) || droppedErrExempt(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error returned by %s is discarded; handle it or assign it explicitly", callName(pass, call))
			return true
		})
	}
}

// returnsError reports whether the call yields an error among its results.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// droppedErrExempt reports whether the called function is on the
// never-actually-fails allowlist.
func droppedErrExempt(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := selectedFunc(pass, sel)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	// bench/ is frozen between benchmark re-baselines (BENCHMARK.json
	// "paths") and its Cluster.RunEvented call statements predate that
	// method's error result; the harness only passes MixStream.Schedule
	// output (ascending by construction) and digests every run. Delete this
	// exemption, and handle the error there, when bench/ next changes.
	if fn.Name() == "RunEvented" && fn.Pkg() != nil && fn.Pkg().Path() == pass.Module+"/internal/platform" &&
		strings.HasPrefix(pass.PkgPath, pass.Module+"/bench/") {
		return true
	}
	if s := pass.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		if named := namedRecv(s.Recv()); named != nil {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() + "." + obj.Name() {
				case "bytes.Buffer", "strings.Builder":
					return true
				}
			}
		}
	}
	return false
}

// namedRecv unwraps a receiver type to its named type, or nil.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// callName renders the call's function expression for the diagnostic.
func callName(pass *Pass, call *ast.CallExpr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, call.Fun); err != nil {
		return "call"
	}
	return buf.String()
}
