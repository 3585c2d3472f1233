package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Wallclock flags direct reads of the wall clock in library packages.
//
// Every experiment in this repo is reproducible only because the
// simulation engine (internal/simulation) owns time: components observe
// the virtual clock passed into their callbacks, never the machine
// clock. A stray time.Now() inside a package that runs under the engine
// silently couples results to host speed and scheduling. Binaries
// (cmd/..., examples/...) front real users and real sockets, so they are
// exempt; library sites that legitimately need wall time (socket
// deadlines in the real FTP stack) carry a //gridlint:wallclock-ok
// directive naming the reason. That directive is the reviewed decision:
// a helper that returns the time.Now it annotated is not re-flagged at
// its callers.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "flags time.Now/Since/Sleep/After/Tick/NewTimer/NewTicker/AfterFunc in library packages; " +
		"simulation-driven code must use the engine's virtual clock",
	Applies: func(pkgPath string) bool {
		return !strings.Contains(pkgPath, "/cmd/") && !strings.Contains(pkgPath, "/examples/")
	},
	Run: runWallclock,
}

var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runWallclock(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallclockBanned[sel.Sel.Name] {
				pass.Report(call.Pos(),
					"time.%s reads the wall clock; use the simulation engine's virtual clock, "+
						"or annotate //gridlint:wallclock-ok <reason> for real-I/O paths",
					sel.Sel.Name)
			}
			return true
		})
	}
}
