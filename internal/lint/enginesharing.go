package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EngineSharing flags simulation state crossing a goroutine boundary.
//
// A *simulation.Engine (and the *netsim.Network it drives) is
// single-goroutine by design: the event loop, every callback, and all
// component state mutate under no lock on the goroutine that calls
// Run/Step. The deterministic worker pool in internal/runner gets its
// parallelism from *private* worlds — each job constructs its own engine
// inside the job closure. An engine that leaks into a `go` statement or
// travels over a channel is therefore a data race waiting to happen, and
// worse, a nondeterminism source that silently invalidates experiment
// results. The analyzer reports:
//
//   - engines/networks captured as free variables by a `go` statement's
//     function literal (including access through a captured struct, e.g.
//     env.Engine where env is captured);
//   - engines/networks passed as arguments in a `go` call, or the
//     receiver of the called method (`go eng.Run()`);
//   - engines/networks sent over a channel.
//
// Values constructed inside the spawned function are owned by that
// goroutine and are fine. Matching is by type name (Engine, Network),
// like lockedcallback, so test stubs are covered without importing the
// real packages.
var EngineSharing = &Analyzer{
	Name: "enginesharing",
	Doc: "flags *simulation.Engine / *netsim.Network values " +
		"captured by go statements, passed to spawned goroutines, or sent over channels",
	Run: runEngineSharing,
}

func runEngineSharing(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				checkGoCall(pass, st.Call)
			case *ast.SendStmt:
				if name, ok := sharedCoreTypeName(pass.TypeOf(st.Value)); ok {
					pass.Report(st.Value.Pos(),
						"%s sent over a channel; simulation cores are single-goroutine — "+
							"pass results across goroutines, not engines", name)
				}
			}
			return true
		})
	}
}

// checkGoCall reports engine-typed values escaping through one `go`
// statement: the callee's receiver, its arguments, and free variables of
// any function literal involved.
func checkGoCall(pass *Pass, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		scanCapturedCores(pass, fun)
	case *ast.SelectorExpr:
		if name, ok := sharedCoreTypeName(pass.TypeOf(fun.X)); ok {
			pass.Report(call.Pos(),
				"go statement invokes a %s method; the event loop must stay on one goroutine", name)
		}
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			scanCapturedCores(pass, lit)
			continue
		}
		if name, ok := sharedCoreTypeName(pass.TypeOf(arg)); ok {
			pass.Report(arg.Pos(),
				"%s passed to a goroutine; build a private instance inside it instead", name)
		}
	}
}

// scanCapturedCores walks a go'd function literal and reports every
// engine-typed expression whose root variable is declared outside the
// literal — a captured shared core. Locally constructed engines are the
// sanctioned pattern and pass untouched.
func scanCapturedCores(pass *Pass, lit *ast.FuncLit) {
	// Selector field names and composite-literal keys resolve to struct
	// fields declared far outside the literal; they are not captures.
	skip := map[*ast.Ident]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			skip[v.Sel] = true
		case *ast.KeyValueExpr:
			if id, ok := v.Key.(*ast.Ident); ok {
				skip[id] = true
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if id, ok := e.(*ast.Ident); ok && skip[id] {
			return true
		}
		name, ok := sharedCoreTypeName(pass.TypeOf(e))
		if !ok {
			return true
		}
		root := rootIdent(e)
		if root == nil {
			return true
		}
		obj := pass.ObjectOf(root)
		if obj == nil || obj.Pos() == token.NoPos {
			return true
		}
		switch obj.(type) {
		case *types.TypeName:
			return true // a type mention (e.g. Network{} literal), not a captured value
		case *types.Func, *types.PkgName, *types.Builtin:
			// The chain bottoms out in a function or package name —
			// NewEngine(), simulation.NewEngine() — so the engine is a
			// fresh construction, not a captured variable's.
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // constructed inside the goroutine: owned, not shared
		}
		pass.Report(e.Pos(),
			"%s captured by a go statement; simulation cores are single-goroutine — "+
				"construct a private one inside the goroutine", name)
		return false // subexpressions would re-report the same capture
	})
}

// sharedCoreTypeName reports whether t is (a pointer to) a named type
// called Engine or Network, returning a display name.
func sharedCoreTypeName(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	switch named.Obj().Name() {
	case "Engine":
		return "*Engine", true
	case "Network":
		return "*Network", true
	}
	return "", false
}

// rootIdent finds the variable at the base of an expression chain
// (a, a.b, (*a).b[i], tb.Engine(), ...). Call results chase the callee:
// an engine obtained through an accessor on a captured value
// (tb.Engine()) is still that captured value's engine. A
// nil result means the value is produced by a literal rather than read
// from a variable.
func rootIdent(e ast.Expr) *ast.Ident {
	switch v := e.(type) {
	case *ast.Ident:
		return v
	case *ast.SelectorExpr:
		return rootIdent(v.X)
	case *ast.CallExpr:
		return rootIdent(v.Fun)
	case *ast.ParenExpr:
		return rootIdent(v.X)
	case *ast.StarExpr:
		return rootIdent(v.X)
	case *ast.IndexExpr:
		return rootIdent(v.X)
	case *ast.UnaryExpr:
		return rootIdent(v.X)
	}
	return nil
}
