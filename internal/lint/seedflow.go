package lint

import (
	"go/ast"
	"go/types"
)

// Seedflow enforces seed provenance in the determinism-scope packages:
// every RNG constructed there must be traceable to a configuration seed
// — a function parameter, a struct field named like "seed", or a value
// computed from one, through arithmetic or a call such as
// runner.DeriveSeed(seed, i) — so that re-running an experiment with a
// different -seed actually reseeds every component. The failure modes it
// catches:
//
//   - hard-coded seeds (rand.NewSource(42)): the component silently
//     ignores the experiment's seed, so "independent" trials share one
//     RNG stream;
//   - seeds from untraceable sources (globals, calls on no seed): seed
//     provenance becomes unauditable;
//   - RNGs built in package-level initializers, before any config exists.
//
// A call is blessed when any of its arguments is, the rule arithmetic
// already follows. What a helper does with the seed inside is judged in
// the helper: a time.Now there is wallclock's finding, a global rand
// draw determinism's.
var Seedflow = &Analyzer{
	Name: "seedflow",
	Doc: "flags RNG constructions in determinism-scope packages whose seed does not trace to " +
		"a config seed, parameter or a call on one (e.g. runner.DeriveSeed)",
	Applies: Determinism.Applies,
	Run:     runSeedflow,
}

func runSeedflow(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Package-level initializers run before any config exists,
				// so an RNG constructed there cannot trace to a seed.
				ast.Inspect(decl, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if (&seedScan{pass: pass}).isRandConstructor(call) {
							pass.Report(call.Pos(),
								"RNG constructed in a package-level initializer cannot trace to the "+
									"experiment seed; construct it from the component's config instead")
						}
					}
					return true
				})
				continue
			}
			if fn.Body == nil {
				continue
			}
			sf := &seedScan{pass: pass, fn: fn, blessed: map[string]bool{}}
			sf.collectBlessedLocals()
			sf.checkBody()
		}
	}
}

// isSeededRand reports whether t is (a pointer to) math/rand's Rand —
// an already-constructed generator whose seeding was judged at its own
// construction site.
func isSeededRand(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "math/rand" && named.Obj().Name() == "Rand"
}

// seedScan checks one function's RNG constructions.
type seedScan struct {
	pass *Pass
	fn   *ast.FuncDecl
	// blessed holds rendered expressions of locals assigned from blessed
	// values (seed := cfg.Seed; src := rand.NewSource(seed); ...).
	blessed map[string]bool
}

// collectBlessedLocals runs the assignment dataflow to a fixpoint:
// locals assigned from blessed expressions become blessed themselves.
// The pass count is bounded because each iteration only grows the set.
func (s *seedScan) collectBlessedLocals() {
	for i := 0; i < 4; i++ {
		grew := false
		ast.Inspect(s.fn.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != len(asg.Rhs) {
				return true
			}
			for j, lhs := range asg.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || s.blessed[id.Name] {
					continue
				}
				if s.isBlessed(asg.Rhs[j]) {
					s.blessed[id.Name] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

func (s *seedScan) checkBody() {
	ast.Inspect(s.fn.Body, func(n ast.Node) bool {
		// Global draws (rand.Intn, ...) are determinism's finding.
		call, ok := n.(*ast.CallExpr)
		if !ok || !s.isRandConstructor(call) || len(call.Args) == 0 {
			return true
		}
		// A constructor whose source argument is itself a rand constructor
		// call is judged at the inner call, not twice. Likewise an
		// already-constructed *rand.Rand (NewZipf's first argument): its
		// seed provenance was judged where it was built.
		if inner, ok := call.Args[0].(*ast.CallExpr); ok && s.isRandConstructor(inner) {
			return true
		}
		if isSeededRand(s.pass.TypeOf(call.Args[0])) || s.isBlessed(call.Args[0]) {
			return true
		}
		s.pass.Report(call.Pos(),
			"rand.%s seed does not trace to a config seed: derive it from a parameter, "+
				"a seed field, or a seed-deriving function like runner.DeriveSeed "+
				"(//gridlint:seedflow-ok <reason> if provenance is established elsewhere)",
			call.Fun.(*ast.SelectorExpr).Sel.Name)
		return true
	})
}

func (s *seedScan) isRandConstructor(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := s.pass.ObjectOf(sel.Sel).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "math/rand" && randAllowed[fn.Name()]
}

// isBlessed reports whether the expression's value traces to a config
// seed: a parameter (or receiver) of the enclosing function, a field
// named like "seed", a blessed local, or arithmetic over or a call on a
// blessed value.
func (s *seedScan) isBlessed(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		if s.blessed[v.Name] {
			return true
		}
		return s.isParam(v)
	case *ast.SelectorExpr:
		if fieldNamedSeed(v.Sel.Name) {
			return true
		}
		if root := rootIdent(v); root != nil {
			return s.isParam(root) || s.blessed[root.Name]
		}
		return false
	case *ast.ParenExpr:
		return s.isBlessed(v.X)
	case *ast.UnaryExpr:
		return s.isBlessed(v.X)
	case *ast.BinaryExpr:
		return s.isBlessed(v.X) || s.isBlessed(v.Y)
	case *ast.CallExpr:
		// Type conversions preserve provenance.
		if tv, ok := s.pass.Info.Types[v.Fun]; ok && tv.IsType() {
			return len(v.Args) == 1 && s.isBlessed(v.Args[0])
		}
		if s.isRandConstructor(v) {
			return len(v.Args) > 0 && s.isBlessed(v.Args[0])
		}
		// Any other call on at least one blessed argument yields a
		// blessed value, as arithmetic does.
		for _, arg := range v.Args {
			if s.isBlessed(arg) {
				return true
			}
		}
		return false
	}
	return false
}

// isParam reports whether the identifier resolves to a parameter or
// receiver of any function enclosing the use site (including the
// function literal parameters of experiment job closures).
func (s *seedScan) isParam(id *ast.Ident) bool {
	obj, ok := s.pass.ObjectOf(id).(*types.Var)
	if !ok || obj.Pos() == 0 {
		return false
	}
	// A parameter or receiver is a *types.Var declared inside the
	// function's signature, before the body starts.
	return obj.Pos() >= s.fn.Pos() && obj.Pos() < s.fn.Body.Pos() || s.isLitParam(obj)
}

// isLitParam reports whether obj is declared in a function literal's
// parameter list inside this function.
func (s *seedScan) isLitParam(obj *types.Var) bool {
	found := false
	ast.Inspect(s.fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || found {
			return !found
		}
		if obj.Pos() >= lit.Type.Pos() && obj.Pos() < lit.Body.Pos() {
			found = true
		}
		return !found
	})
	return found
}

func fieldNamedSeed(name string) bool {
	switch {
	case name == "Seed" || name == "seed":
		return true
	case len(name) > 4 && (name[len(name)-4:] == "Seed" || name[len(name)-4:] == "seed"):
		return true
	}
	return false
}
