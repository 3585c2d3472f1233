package lint

import (
	"go/ast"
	"go/types"
)

// LockedCallback flags re-entering the simulation engine while holding a
// mutex.
//
// The engine is single-threaded by design: event callbacks run on the
// goroutine that calls Run/Step, and components freely call
// Engine.Schedule/After from inside callbacks. The moment a component
// holds a sync.Mutex across such a call, it has built a lock-inversion
// trap — the callback fired synchronously by Step can call back into the
// component and try to take the same lock, deadlocking the whole
// simulation. The analyzer performs a conservative intra-procedural
// scan: between x.Lock() / x.RLock() and the matching release (a
// deferred release holds to function end), calls to methods of a type
// named Engine (Schedule, ScheduleHandler, After, AfterHandler, Step,
// Run, RunUntil, NewTicker, Cancel) and invocations of event callbacks —
// a func(time.Duration) value, or Fire(time.Duration) on an interface
// value such as a simulation.Handler — are reported.
var LockedCallback = &Analyzer{
	Name: "lockedcallback",
	Doc: "flags simulation.Engine scheduling calls and event-callback invocations made " +
		"while holding a sync.Mutex/RWMutex",
	Run: runLockedCallback,
}

var engineMethods = map[string]bool{
	"Schedule":        true,
	"ScheduleHandler": true,
	"After":           true,
	"AfterHandler":    true,
	"Step":            true,
	"Run":             true,
	"RunUntil":        true,
	"NewTicker":       true,
	"Cancel":          true,
}

func runLockedCallback(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			lc := &lockScan{pass: pass, held: map[string]bool{}}
			lc.block(fn.Body.List)
		}
	}
	// Function literals get their own scan: a closure may be invoked on
	// a different goroutine, so lock state does not flow into it, but
	// locks taken inside it still count within its own body.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lc := &lockScan{pass: pass, held: map[string]bool{}}
				lc.block(lit.Body.List)
			}
			return true
		})
	}
}

// lockScan tracks, per mutex expression (rendered as a string), whether
// the lock is held at the current statement. The scan is linear and
// conservative: it does not model branches that release locks on some
// paths only, which is itself a pattern the codebase avoids.
type lockScan struct {
	pass *Pass
	held map[string]bool
}

func (lc *lockScan) anyHeld() bool {
	for _, h := range lc.held {
		if h {
			return true
		}
	}
	return false
}

func (lc *lockScan) block(stmts []ast.Stmt) {
	for _, stmt := range stmts {
		lc.stmt(stmt)
	}
}

func (lc *lockScan) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if name, isLock, acquired := lc.lockOp(call); isLock {
				lc.held[name] = acquired
				return
			}
		}
		lc.check(st.X)
	case *ast.DeferStmt:
		// defer x.Unlock() releases at return; the lock stays held for
		// the remainder of the scan. defer of anything else is checked
		// (it may run while another lock is still held) but does not
		// change state.
		if _, isLock, acquired := lc.lockOp(st.Call); isLock && !acquired {
			return
		}
		lc.check(st.Call)
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the holder's locks.
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			lc.check(rhs)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			lc.check(r)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			lc.stmt(st.Init)
		}
		lc.check(st.Cond)
		lc.block(st.Body.List)
		if st.Else != nil {
			lc.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lc.stmt(st.Init)
		}
		lc.block(st.Body.List)
	case *ast.RangeStmt:
		lc.block(st.Body.List)
	case *ast.BlockStmt:
		lc.block(st.List)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lc.block(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lc.block(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lc.block(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		lc.stmt(st.Stmt)
	}
}

// lockOp classifies a call as a mutex acquire/release. It returns the
// rendered receiver expression, whether the call is a lock operation at
// all, and whether it acquires (true) or releases (false).
func (lc *lockScan) lockOp(call *ast.CallExpr) (name string, isLock, acquired bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquired = true
	case "Unlock", "RUnlock":
		acquired = false
	default:
		return "", false, false
	}
	if !lc.isSyncLocker(sel.X) {
		return "", false, false
	}
	return exprString(sel.X), true, acquired
}

// isSyncLocker reports whether e's type is (or points to) sync.Mutex or
// sync.RWMutex.
func (lc *lockScan) isSyncLocker(e ast.Expr) bool {
	t := lc.pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// check reports engine re-entry and callback invocation inside e while a
// lock is held, then recurses into nested calls' arguments.
func (lc *lockScan) check(e ast.Expr) {
	if e == nil || !lc.anyHeld() {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate goroutine/deferred context
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if engineMethods[sel.Sel.Name] && lc.isEngine(sel.X) {
				lc.pass.Report(call.Pos(),
					"calling Engine.%s while holding a mutex; the engine runs callbacks "+
						"synchronously and may re-enter this component (deadlock risk) — "+
						"release the lock first", sel.Sel.Name)
				return true
			}
		}
		if lc.isEventCallback(call) {
			lc.pass.Report(call.Pos(),
				"invoking an event callback while holding a mutex; run callbacks after "+
					"releasing the lock")
		}
		return true
	})
}

// isEngine reports whether e's type is (a pointer to) a named type
// called Engine. Matching by name rather than full path lets the
// analyzer cover both internal/simulation.Engine and engine stubs in
// tests without importing the real package.
func (lc *lockScan) isEngine(e ast.Expr) bool {
	t := lc.pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

// isEventCallback reports whether the call invokes code the caller was
// handed with the engine's callback signature, func(time.Duration): a
// func *value*, or the Fire method of an interface value (a
// simulation.Handler, whatever record it holds). A declared function, or
// a method called on a concrete type, is not a callback.
func (lc *lockScan) isEventCallback(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
		if t := lc.pass.TypeOf(fun.X); id.Name == "Fire" && t != nil && types.IsInterface(t) {
			return lc.takesDuration(call)
		}
	default:
		return false
	}
	obj := lc.pass.ObjectOf(id)
	if _, isFunc := obj.(*types.Func); isFunc || obj == nil {
		return false // declared func or method, or no type info
	}
	return lc.takesDuration(call)
}

// takesDuration reports whether the called function's signature is
// func(time.Duration).
func (lc *lockScan) takesDuration(call *ast.CallExpr) bool {
	sig, ok := lc.pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration"
}

// exprString renders a simple receiver expression (identifiers, field
// selectors) for use as a lock identity key.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	default:
		return "?"
	}
}
