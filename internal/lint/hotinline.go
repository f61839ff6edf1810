package lint

import "go/ast"

// HotInline keeps the small kernels of the per-session-second path
// inlinable. A function annotated //cocg:inline declares "every call of this
// folds into its caller"; whether it does is a cost budget an innocent edit
// can exceed, and nothing else notices — outputs stay bit-identical, only the
// benchmark moves. The analyzer reads the `go build -gcflags=-m` output
// hotalloc already collects and reports every annotated function the compiler
// did not mark `can inline`; like hotalloc it is inert without that output.
var HotInline = &Analyzer{
	Name: "hotinline",
	Doc:  "functions annotated //cocg:inline that the compiler does not report as inlinable (compiler -m output)",
	Run:  runHotInline,
}

// inlineDirective is the comment that marks a function as must-stay-inlinable.
const inlineDirective = "//cocg:inline"

func runHotInline(pass *Pass) {
	if pass.Escapes == nil {
		return
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd, inlineDirective) {
				continue
			}
			// The compiler reports a declaration on the line of its `func`.
			pos := pass.Fset.Position(fd.Pos())
			if !pass.Escapes.inlinable[funcLine{pos.Filename, pos.Line}] {
				pass.Reportf(fd.Name.Pos(),
					"//cocg:inline function %s is not reported `can inline` by the compiler; its call sites now pay a call and operand copies (see docs/STATIC_ANALYSIS.md#hotinline--cocginline-functions-the-compiler-will-not-inline)",
					fd.Name.Name)
			}
		}
	}
}
