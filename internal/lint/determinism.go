package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismScope lists the package-path suffixes of the packages that
// produce the paper's numbers: everything here must be bit-for-bit
// reproducible across runs, so map iteration order and the process-global
// math/rand source are both off limits.
var determinismScope = []string{
	"internal/simulation",
	"internal/netsim",
	"internal/workload",
	"internal/experiments",
	"internal/runner",
	"internal/gridstate",
	"internal/faults",
	"internal/topo",
	"internal/traffic",
}

// Determinism flags the two classic sources of run-to-run jitter in the
// experiment pipeline:
//
//  1. iteration over a map whose body does real work (calls functions,
//     appends, sends) — Go randomizes map order, so anything downstream
//     of such a loop (event scheduling, replica scoring, table output)
//     varies between runs. The canonical collect-keys-then-sort pattern
//     is recognized and allowed; pure reductions (min/max and integer
//     sums built from comparisons and assignments only) are
//     order-insensitive and allowed.
//  2. package-level math/rand functions (rand.Intn, rand.Shuffle, ...),
//     which draw from the shared global source and defeat per-component
//     seeding. Constructing seeded generators (rand.New, rand.NewSource,
//     rand.NewZipf) is the approved alternative and is not flagged.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flags order-sensitive map iteration and global math/rand use in the simulation, " +
		"netsim, workload and experiments packages",
	Applies: func(pkgPath string) bool {
		for _, s := range determinismScope {
			if PathHasSuffix(pkgPath, s) {
				return true
			}
		}
		return false
	},
	Run: runDeterminism,
}

// Seeded constructors that return an independent generator; everything
// else exported at package level by math/rand draws from the global
// source.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		// Walk statement lists so a range-over-map can see its next
		// sibling (the collect-then-sort idiom sorts immediately after
		// the loop).
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch s := n.(type) {
			case *ast.BlockStmt:
				list = s.List
			case *ast.CaseClause:
				list = s.Body
			case *ast.CommClause:
				list = s.Body
			case *ast.CallExpr:
				checkGlobalRand(pass, s)
				return true
			default:
				return true
			}
			for i, stmt := range list {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				var next ast.Stmt
				if i+1 < len(list) {
					next = list[i+1]
				}
				checkMapRange(pass, rng, next)
			}
			return true
		})
	}
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
		return
	}
	// Methods on *rand.Rand have a receiver; only package-level
	// functions touch the global source.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	if randAllowed[fn.Name()] {
		return
	}
	pass.Report(call.Pos(),
		"rand.%s draws from the process-global source; use a seeded *rand.Rand "+
			"(rand.New(rand.NewSource(seed))) owned by the component", fn.Name())
}

func checkMapRange(pass *Pass, rng *ast.RangeStmt, next ast.Stmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isCollectThenSort(pass, rng, next) || isOrderInsensitive(pass, rng) {
		return
	}
	pass.Report(rng.Pos(),
		"map iteration order is randomized; sort the keys first (collect-then-sort) "+
			"or annotate //gridlint:determinism-ok <reason> if the body is order-independent")
}

// isCollectThenSort recognizes
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)   // or sort.Strings/Ints/...
//
// where the statement immediately after the loop sorts the collected
// slice. A filtering collect — the append wrapped in a single if with
// no else — is accepted too.
func isCollectThenSort(pass *Pass, rng *ast.RangeStmt, next ast.Stmt) bool {
	if len(rng.Body.List) != 1 || next == nil {
		return false
	}
	inner := rng.Body.List[0]
	if ifs, ok := inner.(*ast.IfStmt); ok && ifs.Else == nil && len(ifs.Body.List) == 1 {
		inner = ifs.Body.List[0]
	}
	asg, ok := inner.(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	target, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	// The next statement must call into package sort and mention the
	// collected slice.
	sorted := false
	ast.Inspect(next, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
					for _, arg := range call.Args {
						if id, ok := arg.(*ast.Ident); ok && id.Name == target.Name {
							sorted = true
						}
					}
				}
			}
		}
		return !sorted
	})
	return sorted
}

// isOrderInsensitive reports whether the loop body is a pure reduction:
// no function calls (other than len/cap/delete/min/max and type
// conversions), no append, no sends, no goroutines, no positional
// writes and no float accumulation. Such bodies compute the same result
// in any iteration order. A positional write stores through an index
// other than the range key (adj[off[c]] = …; off[c]++ fills adj in walk
// order); a float += rounds differently in each order.
func isOrderInsensitive(pass *Pass, rng *ast.RangeStmt) bool {
	key, _ := rng.Key.(*ast.Ident)
	ok := true
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
			ok = false
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if s.Tok == token.ASSIGN && isPositional(pass, lhs, key) ||
					s.Tok != token.ASSIGN && s.Tok != token.DEFINE && isFloat(pass, lhs) {
					ok = false
				}
			}
		case *ast.CallExpr:
			if pass.Info != nil {
				if tv, found := pass.Info.Types[s.Fun]; found && tv.IsType() {
					return true // conversion
				}
			}
			if id, isIdent := s.Fun.(*ast.Ident); isIdent {
				if b, isB := pass.ObjectOf(id).(*types.Builtin); isB {
					switch b.Name() {
					case "len", "cap", "delete", "min", "max":
						return true
					}
				}
			}
			ok = false
		}
		return ok
	})
	return ok
}

// isPositional reports whether the assignment target stores through an
// index other than the range key, at any depth of the target
// (a[i] = …, a[i].f = …, *a[i] = …).
func isPositional(pass *Pass, lhs ast.Expr, key *ast.Ident) bool {
	for {
		switch e := lhs.(type) {
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.IndexExpr:
			id, isIdent := e.Index.(*ast.Ident)
			if !isIdent || key == nil || !sameObject(pass, id, key) {
				return true
			}
			lhs = e.X
		default:
			return false
		}
	}
}

// sameObject reports whether two identifiers name one variable (by name
// when the package was not type-checked).
func sameObject(pass *Pass, a, b *ast.Ident) bool {
	oa, ob := pass.ObjectOf(a), pass.ObjectOf(b)
	if oa == nil || ob == nil {
		return a.Name == b.Name
	}
	return oa == ob
}

// isFloat reports whether e has a floating-point or complex type.
func isFloat(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
