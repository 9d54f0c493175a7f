// Package determinism flags wall-clock and unseeded-randomness leaks in
// code that must be byte-deterministic. Every ESTIMA guarantee — identical
// goldens, content-hash cache keys, seeded simulator draws — assumes that
// prediction-path code never reads time.Now, never draws from the global
// math/rand stream, and never lets goroutine scheduling order pick between
// result channels. The analyzer enforces that by default in every package;
// packages that must read wall clocks (cluster's health probes, estima-bench's
// progress output) opt out with a package-level //estima:timing directive,
// and _test.go files are always exempt.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global or unseeded math/rand use, and " +
		"scheduling-order-dependent selects in deterministic code " +
		"(opt out per package with //estima:timing, per line with //estima:allow determinism)",
	Run: run,
}

// timeFuncs are the wall-clock reads; time.Sleep and the formatting helpers
// are allowed (they do not leak nondeterminism into values).
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors are the math/rand source constructors that take an
// explicit seed, making rand.New(...) deterministic.
var seededConstructors = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	if pass.Directives().Timing {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			}
			return true
		})
	}
	return nil
}

// pkgFunc resolves a call's callee to (package path, name) when it is a
// package-level function selected off an imported package (pkg.Func), as
// opposed to a method call on a value.
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if _, ok := pass.TypesInfo.Uses[x].(*types.PkgName); !ok {
		return "", "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	path, name, ok := pkgFunc(pass, call)
	if !ok {
		return
	}
	switch path {
	case "time":
		if timeFuncs[name] {
			pass.ReportRangef(call, "call to time.%s in deterministic code (move it to a //estima:timing package or justify with //estima:allow determinism)", name)
		}
	case "math/rand", "math/rand/v2":
		switch {
		case name == "New":
			// rand.New is fine exactly when its source carries an explicit
			// seed: rand.New(rand.NewSource(seed)).
			if len(call.Args) >= 1 {
				if inner, ok := call.Args[0].(*ast.CallExpr); ok {
					if _, cname, ok := pkgFunc(pass, inner); ok && seededConstructors[cname] {
						return
					}
				}
			}
			pass.ReportRangef(call, "rand.New without an explicitly seeded source in deterministic code")
		case seededConstructors[name]:
			// Constructors themselves are fine; the seed is the caller's.
		default:
			pass.ReportRangef(call, "global %s.%s draws from a shared unseeded stream in deterministic code", pathBase(path), name)
		}
	}
}

func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// checkSelect flags selects with two or more result-binding receive cases:
// when both channels are ready, the runtime picks one at random, so the
// bound results arrive in scheduling order. Cancellation selects (sends,
// or receives that bind nothing, e.g. <-ctx.Done()) are fine.
func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	binds := 0
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		if assign, ok := comm.Comm.(*ast.AssignStmt); ok && len(assign.Rhs) == 1 {
			if recv, ok := assign.Rhs[0].(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
				binds++
			}
		}
	}
	if binds >= 2 {
		pass.ReportRangef(sel, "select binds results from %d channels: runtime picks ready cases in random order in deterministic code", binds)
	}
}
