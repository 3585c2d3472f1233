package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Snapshotdiscipline enforces the lifetime half of the gridstate
// pin-then-rank contract: a Snapshot or SnapshotView is valid for one
// engine instant, so a handle stored into a struct field, a composite
// literal or a package-level variable outlives the callback that pinned
// it and serves stale epochs silently. Locals and parameters are fine:
// pass snapshots down and re-pin per callback.
//
// The defining packages (internal/gridstate, internal/core) are exempt:
// the Publisher's own current-snapshot pointer and the server's
// per-epoch view memo are the implementation of the discipline, not a
// violation of it. Types are matched by name (Snapshot, SnapshotView),
// like the other analyzers, so testdata stubs work without importing
// the real packages.
var Snapshotdiscipline = &Analyzer{
	Name: "snapshotdiscipline",
	Doc: "flags Snapshot/SnapshotView values stored into struct fields, " +
		"composite literals or package-level variables",
	Applies: func(pkgPath string) bool {
		if strings.Contains(pkgPath, "/cmd/") || strings.Contains(pkgPath, "/examples/") {
			return false
		}
		return !PathHasSuffix(pkgPath, "internal/gridstate") && !PathHasSuffix(pkgPath, "internal/core")
	},
	Run: runSnapshotDiscipline,
}

func runSnapshotDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				checkSnapshotStore(pass, s)
			case *ast.CompositeLit:
				checkSnapshotCompositeStore(pass, s)
			}
			return true
		})
	}
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

// isPkgLevelVar reports whether id resolves to a package-level variable.
func isPkgLevelVar(pass *Pass, id *ast.Ident) bool {
	if id == nil {
		return false
	}
	v, ok := pass.ObjectOf(id).(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
