// Package canonicalkey guards the identity layer: every cache key, fit
// fingerprint and simulator seed must be derived from canonical spec names
// (internal/spec), never from ad-hoc fmt.Sprintf or string concatenation.
// Two spellings of one scenario must share one store entry, one fit-memo
// slot and one seed; a hand-rolled format string silently forks them.
//
// Checked sinks:
//
//   - the Workload and Machine fields of store.Key and store.SampleKey
//     composite literals;
//   - arguments bound to parameters declared with an //estima:canonical
//     directive on a same-package function's doc comment, e.g.
//     //estima:canonical workload mach
//
// A sink value may be anything except a fmt.Sprintf/Sprint call or a
// string concatenation whose operands are not themselves canonical-origin:
// string literals, Name()/String()/Canonical* method calls, .Name field
// reads, Lookup(...) results, calls into package spec, or locals assigned
// from one of those.
package canonicalkey

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "canonicalkey",
	Doc: "flag fmt.Sprintf/string-concat values flowing into store keys, " +
		"fingerprints or seeds (//estima:canonical params) that do not " +
		"originate from canonical spec names",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Index the package's own functions that declare canonical params.
	canonical := map[types.Object]map[int]string{} // func obj -> arg index -> param name
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			params := analysis.CanonicalParams(fd)
			if len(params) == 0 {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			byIndex := map[int]string{}
			i := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					for _, p := range params {
						if name.Name == p {
							byIndex[i] = p
						}
					}
					i++
				}
			}
			canonical[obj] = byIndex
		}
	}

	for _, f := range pass.Files {
		// Params of the *enclosing* annotated function are trusted inside
		// its own body; track the current FuncDecl while walking.
		var cur *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				cur = n
			case *ast.CompositeLit:
				checkStoreKey(pass, n, cur)
			case *ast.CallExpr:
				checkAnnotatedCall(pass, n, canonical, cur)
			}
			return true
		})
	}
	return nil
}

// checkStoreKey checks Workload/Machine fields of store.Key and
// store.SampleKey literals.
func checkStoreKey(pass *analysis.Pass, lit *ast.CompositeLit, cur *ast.FuncDecl) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "store" {
		return
	}
	typ := named.Obj().Name()
	if typ != "Key" && typ != "SampleKey" {
		return
	}
	for i, elt := range lit.Elts {
		var value ast.Expr
		var field string
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field, value = key.Name, kv.Value
		} else {
			st, ok := named.Underlying().(*types.Struct)
			if !ok || i >= st.NumFields() {
				continue
			}
			field, value = st.Field(i).Name(), elt
		}
		if field == "Workload" || field == "Machine" {
			checkSinkValue(pass, value, "store."+typ+"."+field, cur)
		}
	}
}

// checkAnnotatedCall checks arguments bound to //estima:canonical params of
// same-package functions.
func checkAnnotatedCall(pass *analysis.Pass, call *ast.CallExpr, canonical map[types.Object]map[int]string, cur *ast.FuncDecl) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	byIndex := canonical[pass.TypesInfo.Uses[id]]
	if byIndex == nil {
		return
	}
	for i, arg := range call.Args {
		if name, ok := byIndex[i]; ok {
			checkSinkValue(pass, arg, name, cur)
		}
	}
}

// checkSinkValue flags the value if it is (or trivially carries) a Sprintf
// or string concatenation over non-canonical parts.
func checkSinkValue(pass *analysis.Pass, value ast.Expr, sink string, cur *ast.FuncDecl) {
	value = ast.Unparen(value)
	switch v := value.(type) {
	case *ast.CallExpr:
		if name, ok := fmtCall(pass, v); ok {
			for _, arg := range v.Args {
				if !canonicalOrigin(pass, arg, cur) {
					pass.ReportRangef(v, "fmt.%s builds the %s identity from non-canonical parts; derive it from the resolved spec name (spec.Canonical form)", name, sink)
					return
				}
			}
		}
	case *ast.BinaryExpr:
		if v.Op != token.ADD || !isString(pass, v) {
			return
		}
		for _, leaf := range concatLeaves(v) {
			if !canonicalOrigin(pass, leaf, cur) {
				pass.ReportRangef(v, "string concatenation builds the %s identity from non-canonical parts; derive it from the resolved spec name (spec.Canonical form)", sink)
				return
			}
		}
	case *ast.Ident:
		// One level of local dataflow: a variable assigned from a Sprintf
		// or concat is checked at its definition site.
		if obj, ok := pass.TypesInfo.ObjectOf(v).(*types.Var); ok && cur != nil && cur.Body != nil {
			if def := defValue(pass, cur.Body, obj); def != nil {
				if _, isIdent := ast.Unparen(def).(*ast.Ident); !isIdent {
					checkSinkValue(pass, def, sink, cur)
				}
			}
		}
	}
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func fmtCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "fmt" {
		return "", false
	}
	switch sel.Sel.Name {
	case "Sprintf", "Sprint", "Sprintln", "Appendf":
		return sel.Sel.Name, true
	}
	return "", false
}

// concatLeaves flattens a tree of + into its operand leaves.
func concatLeaves(e *ast.BinaryExpr) []ast.Expr {
	var out []ast.Expr
	var walk func(ast.Expr)
	walk = func(x ast.Expr) {
		x = ast.Unparen(x)
		if b, ok := x.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			walk(b.X)
			walk(b.Y)
			return
		}
		out = append(out, x)
	}
	walk(e.X)
	walk(e.Y)
	return out
}

// canonicalOrigin reports whether the expression is an acceptable identity
// part.
func canonicalOrigin(pass *analysis.Pass, e ast.Expr, cur *ast.FuncDecl) bool {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.CallExpr:
		switch fun := v.Fun.(type) {
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Name", "String", "Lookup":
				return true
			}
			if len(fun.Sel.Name) >= 9 && fun.Sel.Name[:9] == "Canonical" {
				return true
			}
			if x, ok := fun.X.(*ast.Ident); ok {
				if pkg, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok && pkg.Imported().Name() == "spec" {
					return true
				}
			}
		case *ast.Ident:
			if fun.Name == "Lookup" {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		// A .Name field read (machine.Config.Name holds the canonical name).
		return v.Sel.Name == "Name"
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(v)
		vr, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		// A parameter the enclosing function itself declares canonical is
		// trusted: its call sites are checked at their own boundary.
		if cur != nil {
			for _, p := range analysis.CanonicalParams(cur) {
				if v.Name == p {
					return true
				}
			}
			if cur.Body != nil {
				if def := defValue(pass, cur.Body, vr); def != nil {
					if _, isIdent := ast.Unparen(def).(*ast.Ident); !isIdent {
						return canonicalOrigin(pass, def, cur)
					}
				}
			}
		}
		return false
	}
	return false
}

// defValue finds the expression assigned to obj at its := definition inside
// body, or nil.
func defValue(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) ast.Expr {
	var out ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == obj {
				out = assign.Rhs[i]
				return false
			}
		}
		return true
	})
	return out
}
