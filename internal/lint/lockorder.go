package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds a per-package lock-acquisition graph and flags cyclic
// acquisition order. Mutexes guard the coordinator, the streaming server,
// the per-session queues, and the scheduler; a deadlock needs only two code
// paths that nest two of those locks in opposite orders, and no test
// reliably provokes one. The analyzer tracks which lock
// classes are held at every statement (including TryLock-guarded branches,
// deferred unlocks, and lock methods bound as values), records an edge A→B
// whenever B is acquired — directly or via a same-package call — while A is
// held, and reports every edge that participates in a cycle.
//
// A lock class is the *declaration* of the mutex: a struct field
// (`outQueue.mu` is one class across every session's queue), a package-level
// var, or a local var. Two instances of the same class nested inside each
// other (queue-vs-queue) are invisible to this analysis and must be policed
// by convention; distinct classes are exactly what it sees.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "cyclic or inconsistent mutex acquisition order within a package",
	Run:  runLockOrder,
}

// lockEdge is one observed nesting: to was acquired while from was held.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
}

// lockOrder is the per-package analysis state shared by both passes.
type lockOrder struct {
	pass *Pass
	// names renders a lock class for diagnostics ("Server.clusterMu"),
	// fixed at first sight.
	names map[types.Object]string
	// acquires is the per-function transitive may-acquire set.
	acquires map[*types.Func]map[types.Object]bool
	// calls lists each function's same-package callees.
	calls map[*types.Func][]*types.Func
	// decls resolves a package function to its syntax.
	decls map[*types.Func]*ast.FuncDecl
	// edges holds the first occurrence of every distinct nesting.
	edges map[[2]types.Object]*lockEdge
}

// lockMethods are the sync.Mutex/RWMutex methods that acquire, and
// release, split by effect.
var (
	lockAcquire = map[string]bool{"Lock": true, "RLock": true}
	lockTry     = map[string]bool{"TryLock": true, "TryRLock": true}
	lockRelease = map[string]bool{"Unlock": true, "RUnlock": true}
)

func runLockOrder(pass *Pass) {
	lo := &lockOrder{
		pass:     pass,
		names:    make(map[types.Object]string),
		acquires: make(map[*types.Func]map[types.Object]bool),
		calls:    make(map[*types.Func][]*types.Func),
		decls:    make(map[*types.Func]*ast.FuncDecl),
		edges:    make(map[[2]types.Object]*lockEdge),
	}
	// Pass 1: direct acquire sets and the same-package call graph.
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			lo.decls[fn] = fd
			lo.collectDirect(fn, fd)
		}
	}
	lo.closeAcquires()
	// Pass 2: held-set tracking and edge recording.
	fns := make([]*types.Func, 0, len(lo.decls))
	for fn := range lo.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return lo.decls[fns[i]].Pos() < lo.decls[fns[j]].Pos() })
	for _, fn := range fns {
		w := &lockWalker{lo: lo, tryVars: map[types.Object]types.Object{}, methodVals: map[types.Object]boundLockMethod{}}
		w.walkStmt(lo.decls[fn].Body)
	}
	lo.reportCycles()
}

// mutexMethodCall decodes call as a sync.Mutex/RWMutex method call and
// returns the receiver expression and method name.
func mutexMethodCall(pass *Pass, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn := selectedFunc(pass, sel)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	name := fn.Name()
	if !lockAcquire[name] && !lockTry[name] && !lockRelease[name] {
		return nil, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, "", false
	}
	if n := namedRecv(sig.Recv().Type()); n == nil || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return nil, "", false
	}
	return sel.X, name, true
}

// lockClassOf resolves the receiver of a lock call to its class object: the
// mutex field or var declaration, or — for a mutex reached through embedding
// (`t.Lock()` on a struct embedding sync.Mutex) — the embedding named type.
func (lo *lockOrder) lockClassOf(expr ast.Expr) types.Object {
	expr = ast.Unparen(expr)
	var obj types.Object
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		obj = lo.pass.Info.Uses[e.Sel]
	case *ast.Ident:
		obj = lo.pass.Info.Uses[e]
		if obj == nil {
			obj = lo.pass.Info.Defs[e]
		}
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	// Embedded mutex: the receiver var's type is a named struct, not the
	// mutex itself; the class is that type, shared across instances.
	if n := namedRecv(v.Type()); n != nil && n.Obj().Pkg() != nil && !(n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")) {
		lo.nameClass(n.Obj(), expr)
		return n.Obj()
	}
	lo.nameClass(v, expr)
	return v
}

// nameClass fixes the diagnostic name of a class at first sight, qualifying
// field selectors with the receiver's type ("Server.clusterMu").
func (lo *lockOrder) nameClass(obj types.Object, expr ast.Expr) {
	if _, done := lo.names[obj]; done {
		return
	}
	name := obj.Name()
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		if t := lo.pass.Info.TypeOf(sel.X); t != nil {
			if n := namedRecv(t); n != nil {
				name = n.Obj().Name() + "." + sel.Sel.Name
			}
		}
	} else if tn, ok := obj.(*types.TypeName); ok {
		name = tn.Name() + " (embedded mutex)"
	}
	lo.names[obj] = name
}

// calleeFunc resolves a call to a function declared in this package.
func (lo *lockOrder) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := lo.pass.Info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() != lo.pass.Pkg {
		return nil
	}
	return fn
}

// collectDirect fills fn's direct acquire set and callee list.
func (lo *lockOrder) collectDirect(fn *types.Func, fd *ast.FuncDecl) {
	acq := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, isMutex := mutexMethodCall(lo.pass, call); isMutex {
			if lockAcquire[method] || lockTry[method] {
				if c := lo.lockClassOf(recv); c != nil {
					acq[c] = true
				}
			}
			return true
		}
		if callee := lo.calleeFunc(call); callee != nil {
			lo.calls[fn] = append(lo.calls[fn], callee)
		}
		return true
	})
	lo.acquires[fn] = acq
}

// closeAcquires propagates acquire sets over the package call graph to a
// fixpoint, so a call made under a lock charges every lock the callee can
// transitively take.
func (lo *lockOrder) closeAcquires() {
	for changed := true; changed; {
		changed = false
		for fn, callees := range lo.calls {
			acq := lo.acquires[fn]
			for _, callee := range callees {
				for c := range lo.acquires[callee] {
					if !acq[c] {
						acq[c] = true
						changed = true
					}
				}
			}
		}
	}
}

// recordEdges notes that class was acquired at pos with held on the stack.
func (lo *lockOrder) recordEdges(held []types.Object, class types.Object, pos token.Pos) {
	for _, h := range held {
		if h == class {
			continue
		}
		key := [2]types.Object{h, class}
		if _, seen := lo.edges[key]; !seen {
			lo.edges[key] = &lockEdge{from: h, to: class, pos: pos}
		}
	}
}

// boundLockMethod is a lock method captured as a value (`l := mu.Lock`).
type boundLockMethod struct {
	class  types.Object
	method string
}

// lockWalker tracks the held-lock stack through one function body.
type lockWalker struct {
	lo   *lockOrder
	held []types.Object
	// tryVars maps `ok := mu.TryLock()` results to the guarded class.
	tryVars map[types.Object]types.Object
	// methodVals maps `l := mu.Lock` bindings to the bound method.
	methodVals map[types.Object]boundLockMethod
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range st.List {
			w.walkStmt(inner)
		}
	case *ast.ExprStmt:
		w.walkExpr(st.X, false)
	case *ast.DeferStmt:
		w.handleCall(st.Call, true)
	case *ast.GoStmt:
		// The goroutine runs concurrently: locks held at spawn are not held
		// inside it. Its body is analyzed with an empty stack.
		saved := w.held
		w.held = nil
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmt(lit.Body)
		}
		w.held = saved
	case *ast.AssignStmt:
		w.walkAssign(st)
	case *ast.IfStmt:
		w.walkIf(st)
	case *ast.ForStmt:
		w.walkStmt(st.Init)
		w.walkExprOpt(st.Cond)
		saved := w.snapshot()
		w.walkStmt(st.Body)
		w.walkStmt(st.Post)
		w.restore(saved)
	case *ast.RangeStmt:
		w.walkExprOpt(st.X)
		saved := w.snapshot()
		w.walkStmt(st.Body)
		w.restore(saved)
	case *ast.SwitchStmt:
		w.walkStmt(st.Init)
		w.walkExprOpt(st.Tag)
		w.walkClauses(st.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init)
		w.walkClauses(st.Body)
	case *ast.SelectStmt:
		w.walkClauses(st.Body)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.walkExpr(r, false)
		}
	case *ast.SendStmt:
		w.walkExpr(st.Chan, false)
		w.walkExpr(st.Value, false)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, false)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.walkExpr(st.X, false)
	}
}

// walkClauses walks each case body with a saved/restored held stack: clauses
// are alternatives, not a sequence.
func (w *lockWalker) walkClauses(body *ast.BlockStmt) {
	for _, clause := range body.List {
		saved := w.snapshot()
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.walkExpr(e, false)
			}
			for _, s := range c.Body {
				w.walkStmt(s)
			}
		case *ast.CommClause:
			w.walkStmt(c.Comm)
			for _, s := range c.Body {
				w.walkStmt(s)
			}
		}
		w.restore(saved)
	}
}

func (w *lockWalker) snapshot() []types.Object { return append([]types.Object(nil), w.held...) }
func (w *lockWalker) restore(saved []types.Object) {
	w.held = saved
}

// walkAssign records TryLock results and bound lock methods, then processes
// any calls on the right-hand side.
func (w *lockWalker) walkAssign(st *ast.AssignStmt) {
	// l := mu.Lock — the method value is an acquisition deferred to l().
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if sel, ok := ast.Unparen(st.Rhs[0]).(*ast.SelectorExpr); ok {
			if fn := selectedFunc(w.lo.pass, sel); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
				(lockAcquire[fn.Name()] || lockTry[fn.Name()] || lockRelease[fn.Name()]) {
				if class := w.lo.lockClassOf(sel.X); class != nil {
					if id, ok := st.Lhs[0].(*ast.Ident); ok {
						if obj := w.objOf(id); obj != nil {
							w.methodVals[obj] = boundLockMethod{class: class, method: fn.Name()}
							return
						}
					}
				}
			}
		}
		// ok := mu.TryLock() — the class is held only where ok guards it.
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if recv, method, isMutex := mutexMethodCall(w.lo.pass, call); isMutex && lockTry[method] {
				if class := w.lo.lockClassOf(recv); class != nil {
					if id, ok := st.Lhs[0].(*ast.Ident); ok {
						if obj := w.objOf(id); obj != nil {
							w.tryVars[obj] = class
							return
						}
					}
				}
			}
		}
	}
	for _, r := range st.Rhs {
		w.walkExpr(r, false)
	}
}

func (w *lockWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.lo.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return w.lo.pass.Info.Uses[id]
}

// walkIf handles TryLock guards: in `if mu.TryLock() { ... }` (or through a
// boolean from walkAssign) the class is held in the then-branch; negated, in
// the else-branch.
func (w *lockWalker) walkIf(st *ast.IfStmt) {
	w.walkStmt(st.Init)
	cond := ast.Unparen(st.Cond)
	negated := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, negated = ast.Unparen(u.X), true
	}
	var guarded types.Object
	switch c := cond.(type) {
	case *ast.CallExpr:
		if recv, method, isMutex := mutexMethodCall(w.lo.pass, c); isMutex && lockTry[method] {
			guarded = w.lo.lockClassOf(recv)
		} else {
			w.walkExpr(c, false)
		}
	case *ast.Ident:
		if obj := w.lo.pass.Info.Uses[c]; obj != nil {
			guarded = w.tryVars[obj]
		}
	default:
		w.walkExpr(cond, false)
	}

	walkBranch := func(s ast.Stmt, hold bool) {
		saved := w.snapshot()
		if hold && guarded != nil {
			w.lo.recordEdges(w.held, guarded, st.Pos())
			w.held = append(w.held, guarded)
		}
		w.walkStmt(s)
		w.restore(saved)
	}
	walkBranch(st.Body, !negated)
	if st.Else != nil {
		walkBranch(st.Else, negated)
	}
}

// walkExprOpt walks an optional expression.
func (w *lockWalker) walkExprOpt(e ast.Expr) {
	if e != nil {
		w.walkExpr(e, false)
	}
}

// walkExpr processes calls nested in an expression in evaluation order.
func (w *lockWalker) walkExpr(e ast.Expr, isDefer bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		for _, arg := range x.Args {
			w.walkExpr(arg, false)
		}
		w.handleCall(x, isDefer)
	case *ast.BinaryExpr:
		w.walkExpr(x.X, false)
		w.walkExpr(x.Y, false)
	case *ast.UnaryExpr:
		w.walkExpr(x.X, false)
	case *ast.StarExpr:
		w.walkExpr(x.X, false)
	case *ast.IndexExpr:
		w.walkExpr(x.X, false)
		w.walkExpr(x.Index, false)
	case *ast.SelectorExpr:
		w.walkExpr(x.X, false)
	case *ast.FuncLit:
		// A bare closure in expression position is walked with the current
		// stack: the dominant idiom here is a synchronous callback
		// (parallel.For bodies, sort comparators).
		saved := w.snapshot()
		w.walkStmt(x.Body)
		w.restore(saved)
	}
}

// handleCall applies one call's locking effect to the held stack.
func (w *lockWalker) handleCall(call *ast.CallExpr, isDefer bool) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Immediately-invoked (or deferred) closure: walk its body inline.
		saved := w.snapshot()
		w.walkStmt(lit.Body)
		w.restore(saved)
		return
	}
	if recv, method, isMutex := mutexMethodCall(w.lo.pass, call); isMutex {
		class := w.lo.lockClassOf(recv)
		if class == nil {
			return
		}
		w.applyLockOp(class, method, isDefer, call.Pos())
		return
	}
	// l() where l is a bound lock method.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := w.lo.pass.Info.Uses[id]; obj != nil {
			if bound, isBound := w.methodVals[obj]; isBound {
				w.applyLockOp(bound.class, bound.method, isDefer, call.Pos())
				return
			}
		}
	}
	if callee := w.lo.calleeFunc(call); callee != nil {
		for c := range w.lo.acquires[callee] {
			w.lo.recordEdges(w.held, c, call.Pos())
		}
	}
}

// applyLockOp mutates the held stack for one lock/unlock.
func (w *lockWalker) applyLockOp(class types.Object, method string, isDefer bool, pos token.Pos) {
	switch {
	case lockAcquire[method], lockTry[method]:
		// A TryLock in statement position (result discarded) is treated as an
		// acquisition; guarded forms are handled in walkIf/walkAssign.
		w.lo.recordEdges(w.held, class, pos)
		w.held = append(w.held, class)
	case lockRelease[method]:
		if isDefer {
			return // deferred unlock: held until function end
		}
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i] == class {
				w.held = append(w.held[:i], w.held[i+1:]...)
				return
			}
		}
	}
}

// reportCycles finds every edge that participates in a cycle of the lock
// graph and reports it at its first occurrence.
func (lo *lockOrder) reportCycles() {
	if len(lo.edges) == 0 {
		return
	}
	// Fix an edge order up front (first-occurrence position) so the
	// adjacency walk and the report sequence never depend on map iteration.
	keys := make([][2]types.Object, 0, len(lo.edges))
	for k := range lo.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lo.edges[keys[i]].pos < lo.edges[keys[j]].pos })
	adj := make(map[types.Object][]types.Object)
	for _, key := range keys {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	reaches := func(from, to types.Object) bool {
		seen := map[types.Object]bool{}
		var stack []types.Object
		stack = append(stack, from)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	var cyclic []*lockEdge
	for _, key := range keys {
		if e := lo.edges[key]; reaches(e.to, e.from) {
			cyclic = append(cyclic, e)
		}
	}
	for _, e := range cyclic {
		msg := fmt.Sprintf("lock order cycle: %s is acquired while %s is held here", lo.names[e.to], lo.names[e.from])
		if rev, ok := lo.edges[[2]types.Object{e.to, e.from}]; ok {
			p := lo.pass.Fset.Position(rev.pos)
			msg += fmt.Sprintf(", but %s is acquired while %s is held at %s:%d", lo.names[e.from], lo.names[e.to], p.Filename, p.Line)
		} else {
			msg += " and is part of a cycle through a third lock"
		}
		msg += "; pick one acquisition order and enforce it everywhere"
		lo.pass.Reportf(e.pos, "%s", msg)
	}
}
