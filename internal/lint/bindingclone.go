package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// bindingclone: the Row a streaming cursor's Next yields is a thin
// view — one slice refilled from the engine's current columnar batch —
// that changes at the next pull. Retaining such a row — appending it to a slice, storing it into
// a struct field, map, or array element, or sending it over a channel
// — without an interposing Clone() means the retained row mutates under
// the holder at the next Next.
//
// The check is a per-function taint pass: variables bound from a
// `row, ok := cur.Next()` call whose first result is a named Row type
// are tainted; any retention of a tainted variable that is not a
// direct .Clone() call is flagged. Immediate consumption — passing the
// row to an encoder, reading its columns, appending its terms with
// append(dst, row...) — is fine and not flagged.

var analyzerBindingClone = &Analyzer{
	Name: "bindingclone",
	Doc:  "Row views from Cursor.Next must be Cloned before being retained",
	Run:  runBindingClone,
}

func runBindingClone(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, bindingCloneFunc(pkg, fd)...)
			}
		}
	}
	return diags
}

// isNextRowCall reports whether the call is a cursor pull: a method
// named Next whose first result is a named Row.
func isNextRowCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Next" || !isMethodCall(info, sel) {
		return false
	}
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() < 1 {
		return false
	}
	n := namedOf(tuple.At(0).Type())
	return n != nil && n.Obj().Name() == "Row"
}

func bindingCloneFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	info := pkg.Info

	// Pass 1: collect tainted row-view variables.
	tainted := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !isNextRowCall(info, call) {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := identObj(info, id); obj != nil {
				tainted[obj] = true
			}
		}
		return true
	})
	if len(tainted) == 0 {
		return nil
	}

	isTainted := func(expr ast.Expr) (types.Object, bool) {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := identObj(info, id)
		return obj, obj != nil && tainted[obj]
	}

	var diags []Diagnostic
	report := func(n ast.Node, obj types.Object, how string) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(n.Pos()),
			Analyzer: "bindingclone",
			Message: fmt.Sprintf("Row view %q from Next is %s without Clone: the view is reused on the next pull — retain %s.Clone() instead",
				obj.Name(), how, obj.Name()),
		})
	}

	// Pass 2: flag retention of tainted variables.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 {
				args := n.Args[1:]
				if n.Ellipsis.IsValid() {
					args = args[:len(args)-1] // row... copies the terms out
				}
				for _, arg := range args {
					if obj, ok := isTainted(arg); ok {
						report(arg, obj, "appended to a slice")
					}
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				obj, ok := isTainted(r)
				if !ok {
					continue
				}
				li := i
				if len(n.Lhs) != len(n.Rhs) {
					li = 0
				}
				switch n.Lhs[li].(type) {
				case *ast.SelectorExpr:
					report(r, obj, "stored into a struct field")
				case *ast.IndexExpr:
					report(r, obj, "stored into a slice or map element")
				case *ast.StarExpr:
					report(r, obj, "stored through a pointer")
				}
			}
		case *ast.SendStmt:
			if obj, ok := isTainted(n.Value); ok {
				report(n.Value, obj, "sent over a channel")
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj, ok := isTainted(v); ok {
					report(v, obj, "captured in a composite literal")
				}
			}
		}
		return true
	})
	return diags
}
