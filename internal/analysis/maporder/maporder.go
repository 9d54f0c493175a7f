// Package maporder flags map iteration whose order can leak into output.
// Go randomizes map iteration order on purpose; any range over a map that
// writes to an encoder, string builder or hash, that collects into a
// slice which is never sorted afterwards, or that accumulates a float
// declared outside the loop, produces byte-different output from run to
// run — exactly what ESTIMA's golden files and content-hash cache keys
// cannot tolerate. The blessed idiom is collect-keys-then-sort (see
// counters.sortedSum); the analyzer recognizes it and stays quiet.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map bodies that write to encoders/builders/hashes, " +
		"collect into slices never sorted afterwards, or accumulate floats",
	Run: run,
}

// orderSinks are method names whose calls emit bytes in call order:
// io.Writer/hash.Hash Write, strings.Builder/bytes.Buffer writers, and
// streaming encoders.
var orderSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeToken": true,
}

// fmtSinks are fmt functions that emit to a stream in call order.
var fmtSinks = map[string]bool{
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil
}

// checkBody finds every range-over-map in a function body and checks its
// body for order-sensitive sinks; funcBody scopes the later-sort search.
func checkBody(pass *analysis.Pass, funcBody *ast.BlockStmt) {
	ast.Inspect(funcBody, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		checkMapRange(pass, rng, funcBody)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkSinkCall(pass, n)
		case *ast.AssignStmt:
			checkAppend(pass, n, rng, funcBody)
			checkFloatAccum(pass, n, rng)
		}
		return true
	})
}

// checkSinkCall flags ordered writes: method calls named like Write/Encode
// on any receiver, and fmt's stream printers.
func checkSinkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if x, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok {
			if pkg.Imported().Path() == "fmt" && fmtSinks[name] {
				pass.ReportRangef(call, "fmt.%s inside range over map emits in nondeterministic iteration order (sort the keys first)", name)
			}
			return
		}
	}
	if orderSinks[name] {
		pass.ReportRangef(call, "%s call inside range over map emits in nondeterministic iteration order (sort the keys first)", name)
	}
}

// checkAppend flags `s = append(s, ...)` onto a slice declared outside the
// range statement, unless the enclosing function sorts that slice after the
// loop — the collect-then-sort idiom.
func checkAppend(pass *analysis.Pass, assign *ast.AssignStmt, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return
	} else if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
		return
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	// Only slices that outlive the loop can leak its order.
	if !ok || !outlives(pass, lhs, rng) || sortedAfter(pass, funcBody, rng, pass.TypesInfo.ObjectOf(lhs)) {
		return
	}
	pass.ReportRangef(assign, "%s collects in map-iteration order and is never sorted afterwards", lhs.Name)
}

// checkFloatAccum flags `x += v` (or -=, *=) on a float declared outside
// the range statement (x, or the x of x.f or x[i]). Float arithmetic is not
// associative, so the total depends on the map's iteration order at the
// last bit.
func checkFloatAccum(pass *analysis.Pass, assign *ast.AssignStmt, rng *ast.RangeStmt) {
	if assign.Tok != token.ADD_ASSIGN && assign.Tok != token.SUB_ASSIGN && assign.Tok != token.MUL_ASSIGN {
		return
	}
	t := pass.TypesInfo.TypeOf(assign.Lhs[0])
	if t == nil {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	var root *ast.Ident
	ast.Inspect(assign.Lhs[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && root == nil {
			root = id
		}
		return root == nil
	})
	if root != nil && outlives(pass, root, rng) {
		pass.ReportRangef(assign, "%s accumulates a float in map-iteration order, so its last bits differ from run to run (sum over sorted keys)", root.Name)
	}
}

// outlives reports whether id is a variable declared outside the range
// statement, so that what the loop leaves in it survives the loop.
func outlives(pass *analysis.Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() != 0 && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
}

// sortedAfter reports whether, after the range statement, the function
// passes obj to a sort.* or slices.Sort* call.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
		if !ok {
			return true
		}
		path := pkg.Imported().Path()
		isSort := path == "sort" || (path == "slices" && len(sel.Sel.Name) >= 4 && sel.Sel.Name[:4] == "Sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if usesObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func usesObject(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	used := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			used = true
			return false
		}
		return !used
	})
	return used
}
