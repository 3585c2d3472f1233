package lint

import (
	"go/ast"
	"go/types"
)

// errcheckScope lists the package-path suffixes of the real-I/O stack,
// where a dropped Close/Flush/SetDeadline error means silently corrupted
// transfers or hung sockets.
var errcheckScope = []string{
	"internal/gridftp",
	"internal/gsi",
}

// errcheckMethods are the methods whose errors this analyzer refuses to
// let vanish. Close on a written-to connection reports buffered-write
// failures; SetDeadline failures mean the timeout the caller is counting
// on was never armed; Flush failures are lost payload.
var errcheckMethods = map[string]bool{
	"Close":            true,
	"Flush":            true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// ErrcheckLite flags statements in the GridFTP and GSI packages that
// call Close, Flush or SetDeadline and discard the returned error.
//
// Deliberate discards stay possible but must be explicit: write
// `_ = c.Close()`. Deferred calls (`defer c.Close()`) are not flagged —
// they are cleanup on paths where a primary error usually dominates,
// and Go offers no ergonomic way to propagate them without named
// result gymnastics.
var ErrcheckLite = &Analyzer{
	Name: "errcheck",
	Doc: "flags dropped errors from Close/Flush/SetDeadline in internal/gridftp " +
		"and internal/gsi",
	Applies: func(pkgPath string) bool {
		for _, s := range errcheckScope {
			if PathHasSuffix(pkgPath, s) {
				return true
			}
		}
		return false
	},
	Run: runErrcheckLite,
}

func runErrcheckLite(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !errcheckMethods[sel.Sel.Name] {
				return true
			}
			if !returnsError(pass, call) {
				return true
			}
			pass.Report(call.Pos(),
				"error from %s.%s is dropped; handle it or discard explicitly with `_ =`",
				exprString(sel.X), sel.Sel.Name)
			return true
		})
	}
}

// returnsError reports whether the call's final result is of type error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// exprString renders a simple receiver expression (identifiers, field
// selectors) for the finding's message.
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
