package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Snapshotdiscipline enforces the gridstate pin-then-rank contract
// introduced by the snapshot plane: selection code serving one logical
// batch pins a snapshot (or SnapshotView) once and scores every
// candidate against that epoch, instead of re-pulling grid state per
// candidate — both for performance (the 13× batch speedup in
// BENCH_select.json depends on it) and for semantics (candidates judged
// against different epochs are not comparable). The analyzer reports:
//
//   - repinning calls inside a loop whose body never advances the
//     virtual clock — Publisher.Current/Snapshot/Publish and
//     SelectionServer.Rank/SelectBest/PinView per iteration re-validate
//     or re-pull the same instant's state; pin a SnapshotView once
//     before the loop and rank against it. Loops that call
//     Engine.Run/RunUntil/Step in the body legitimately pin once per
//     epoch and are not flagged;
//   - Snapshot/SnapshotView values stored into struct fields or
//     package-level variables: a snapshot is valid for one engine
//     instant, so a handle that outlives the callback that pinned it
//     serves stale epochs silently. Locals and parameters are fine.
//
// The defining packages (internal/gridstate, internal/core) are exempt:
// the Publisher's own current-snapshot pointer and the server's
// per-epoch view memo are the implementation of the discipline, not a
// violation of it. Types are matched by name (Publisher,
// SelectionServer, Snapshot, SnapshotView, Engine), like the other
// analyzers, so testdata stubs work without importing the real packages.
var Snapshotdiscipline = &Analyzer{
	Name: "snapshotdiscipline",
	Doc: "flags per-iteration snapshot repinning (Publisher.Current/Snapshot, " +
		"SelectionServer.Rank/SelectBest/PinView in clock-stationary loops) and " +
		"Snapshot/SnapshotView values stored into struct fields or globals",
	Applies: func(pkgPath string) bool {
		if strings.Contains(pkgPath, "/cmd/") || strings.Contains(pkgPath, "/examples/") {
			return false
		}
		return !PathHasSuffix(pkgPath, "internal/gridstate") && !PathHasSuffix(pkgPath, "internal/core")
	},
	Run: runSnapshotDiscipline,
}

// repinMethods maps receiver type name -> method names that pull or pin
// grid state at the current instant.
var repinMethods = map[string]map[string]bool{
	"Publisher":       {"Current": true, "Snapshot": true, "Publish": true},
	"SelectionServer": {"Rank": true, "SelectBest": true, "PinView": true},
	// info.Server fronts the publisher with its own Snapshot accessor.
	"Server": {"Snapshot": true},
}

// clockAdvance are the Engine methods that move virtual time; a loop
// that calls one per iteration pins a genuinely new instant each time.
var clockAdvance = map[string]bool{"Run": true, "RunUntil": true, "Step": true}

func runSnapshotDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch s := n.(type) {
			case *ast.ForStmt:
				body = s.Body
			case *ast.RangeStmt:
				body = s.Body
			case *ast.AssignStmt:
				checkSnapshotStore(pass, s)
				return true
			case *ast.CompositeLit:
				checkSnapshotCompositeStore(pass, s)
				return true
			default:
				return true
			}
			checkLoopRepin(pass, body)
			return true
		})
	}
}

// checkLoopRepin reports repinning calls in the loop body unless the
// body also advances the clock. Function literals are skipped — a
// closure in the body typically runs as an engine callback at another
// instant — and nested loops are checked on their own visit.
func checkLoopRepin(pass *Pass, body *ast.BlockStmt) {
	advances := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
				clockAdvance[sel.Sel.Name] && recvTypeName(pass, sel.X) == "Engine" {
				advances = true
			}
		}
		return !advances
	})
	if advances {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			// Inner loops are judged against their own bodies.
			if n != ast.Node(body) {
				return false
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := recvTypeName(pass, sel.X)
			if methods, ok := repinMethods[recv]; ok && methods[sel.Sel.Name] {
				pass.Report(v.Pos(),
					"%s.%s inside a loop that never advances the clock repins the same instant "+
						"per iteration; pin a SnapshotView once before the loop and rank against it",
					recv, sel.Sel.Name)
			}
		}
		return true
	})
}

// checkSnapshotStore flags snapshot-typed values assigned to struct
// fields or package-level variables.
func checkSnapshotStore(pass *Pass, asg *ast.AssignStmt) {
	for i, lhs := range asg.Lhs {
		if i >= len(asg.Rhs) && len(asg.Rhs) != 1 {
			break
		}
		name, ok := snapshotTypeName(pass.TypeOf(lhs))
		if !ok {
			continue
		}
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			// A field store; a selector of a package-level struct is one too.
			if sel, found := pass.Info.Selections[l]; found && sel.Kind() == types.FieldVal {
				pass.Report(lhs.Pos(),
					"%s stored into a struct field; snapshots are valid for one engine instant — "+
						"pass them down as arguments and re-pin per callback", name)
			} else if isPkgLevelVar(pass, rootIdent(l)) {
				pass.Report(lhs.Pos(),
					"%s stored into a package-level variable; snapshots are valid for one engine "+
						"instant — pin locally instead", name)
			}
		case *ast.Ident:
			if isPkgLevelVar(pass, l) {
				pass.Report(lhs.Pos(),
					"%s stored into a package-level variable; snapshots are valid for one engine "+
						"instant — pin locally instead", name)
			}
		}
	}
}

// checkSnapshotCompositeStore flags snapshot-typed values used as field
// values in composite literals — the literal (and the snapshot with it)
// can escape anywhere.
func checkSnapshotCompositeStore(pass *Pass, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if name, ok := snapshotTypeName(pass.TypeOf(kv.Value)); ok {
			pass.Report(kv.Value.Pos(),
				"%s stored into a struct literal field; snapshots are valid for one engine "+
					"instant — pass them down as arguments and re-pin per callback", name)
		}
	}
}

// snapshotTypeName reports whether t is (a pointer to) a named type
// called Snapshot or SnapshotView.
func snapshotTypeName(t types.Type) (string, bool) {
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
	case "Snapshot":
		return "*Snapshot", true
	case "SnapshotView":
		return "*SnapshotView", true
	}
	return "", false
}

// recvTypeName returns the name of the (pointer-stripped) named type of
// the receiver expression, or "".
func recvTypeName(pass *Pass, e ast.Expr) string {
	t := pass.TypeOf(e)
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isPkgLevelVar reports whether id resolves to a package-level variable.
func isPkgLevelVar(pass *Pass, id *ast.Ident) bool {
	if id == nil {
		return false
	}
	v, ok := pass.ObjectOf(id).(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
