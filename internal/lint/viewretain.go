package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Two analyzers enforce one contract with one per-function taint pass:
// a view a producer yields is reused at its next pull, so retaining it
// — appending it to a slice, storing it into a struct field, map or
// array element or through a pointer, sending it over a channel or
// capturing it in a composite literal — without an interposing copy
// means the retained view mutates under the holder. Variables bound
// from a pull are tainted; any retention of a bare tainted variable is
// flagged, while a copy (or any other call) on the right-hand side is
// not a bare identifier and never flags. Immediate consumption — reading
// the view, passing it on, appending its elements with append(dst,
// row...), returning a batch downstream (ownership forwards with the
// pull) — is fine. Deliberate stashes whose lifetime provably ends
// before the next pull (a cursor's current batch, a lookahead buffer
// drained before the iterator pulls again) carry //lint:allow pragmas
// stating that argument.
//
//   - bindingclone: the Row a streaming cursor's Next yields is a thin
//     view, one slice refilled from the engine's current columnar batch.
//     A pull is a method named Next whose first result is a named Row.
//   - batchview: the *Batch a batch iterator's next yields is owned by
//     the producer and reused or overwritten in place. A pull is a
//     function or method named next (or the nextLive helper) whose first
//     result is a pointer to a named Batch.

var analyzerBindingClone = viewAnalyzer(view{
	name:    "bindingclone",
	doc:     "Row views from Cursor.Next must be Cloned before being retained",
	message: "Row view %q from Next is %s without Clone: the view is reused on the next pull — retain %s.Clone() instead",
	isPull:  isNextRowCall,
})

var analyzerBatchView = viewAnalyzer(view{
	name:    "batchview",
	doc:     "*Batch views from a batch iterator's next must be cloneBatch-ed before being retained",
	message: "*Batch view %q from next is %s without cloneBatch: the producer reuses the batch on the next pull — retain cloneBatch(%s) instead",
	isPull:  isNextBatchCall,
})

// view is one kind of reused view: its analyzer, its diagnostic (the
// variable, how it is retained, the variable) and its pulls.
type view struct {
	name, doc, message string
	isPull             func(info *types.Info, call *ast.CallExpr) bool
}

func viewAnalyzer(v view) *Analyzer {
	return &Analyzer{Name: v.name, Doc: v.doc, Run: func(prog *Program) []Diagnostic {
		var diags []Diagnostic
		for _, pkg := range prog.Pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						diags = append(diags, v.check(pkg, fd)...)
					}
				}
			}
		}
		return diags
	}}
}

// isNextRowCall reports whether the call is a cursor pull.
func isNextRowCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Next" || !isMethodCall(info, sel) {
		return false
	}
	tuple, ok := info.Types[call].Type.(*types.Tuple)
	if !ok || tuple.Len() < 1 {
		return false
	}
	n := namedOf(tuple.At(0).Type())
	return n != nil && n.Obj().Name() == "Row"
}

// isNextBatchCall reports whether the call is a batch pull.
func isNextBatchCall(info *types.Info, call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	if name != "next" && name != "nextLive" {
		return false
	}
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	first := tv.Type
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		if tuple.Len() < 1 {
			return false
		}
		first = tuple.At(0).Type()
	}
	ptr, ok := first.(*types.Pointer)
	if !ok {
		return false
	}
	n := namedOf(ptr.Elem())
	return n != nil && n.Obj().Name() == "Batch"
}

func (v view) check(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	info := pkg.Info

	// Pass 1: collect the tainted view variables.
	tainted := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !v.isPull(info, call) {
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

	var diags []Diagnostic
	flag := func(expr ast.Expr, how string) {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return
		}
		if obj := identObj(info, id); obj != nil && tainted[obj] {
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(expr.Pos()),
				Analyzer: v.name,
				Message:  fmt.Sprintf(v.message, obj.Name(), how, obj.Name()),
			})
		}
	}

	// Pass 2: flag retention of tainted variables.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 {
				args := n.Args[1:]
				if n.Ellipsis.IsValid() {
					args = args[:len(args)-1] // row... copies the elements out
				}
				for _, arg := range args {
					flag(arg, "appended to a slice")
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				li := i
				if len(n.Lhs) != len(n.Rhs) {
					li = 0
				}
				switch n.Lhs[li].(type) {
				case *ast.SelectorExpr:
					flag(r, "stored into a struct field")
				case *ast.IndexExpr:
					flag(r, "stored into a slice or map element")
				case *ast.StarExpr:
					flag(r, "stored through a pointer")
				}
			}
		case *ast.SendStmt:
			flag(n.Value, "sent over a channel")
		case *ast.CompositeLit:
			// rowRef{b: b, i: i} is the engine's sanctioned transient
			// row-addressing view, built and consumed within one pull;
			// flagging it would drown the real retention sites.
			if named := namedOf(info.Types[n].Type); named != nil && named.Obj().Name() == "rowRef" {
				return true
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				flag(elt, "captured in a composite literal")
			}
		}
		return true
	})
	return diags
}
