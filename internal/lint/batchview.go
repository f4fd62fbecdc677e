package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// batchview: the *Batch a batch iterator's next yields is owned by the
// producer and reused (or overwritten in place) on the next pull — the
// columnar analogue of the Row view contract bindingclone
// enforces. Retaining such a batch — appending it to a slice, storing
// it into a struct field, map, array element or through a pointer, or
// sending it over a channel — without an interposing cloneBatch means
// the retained columns mutate under the holder at the next next.
//
// The check mirrors bindingclone's per-function taint pass: variables
// bound from a call named next (or the nextLive helper) whose first
// result is a *Batch are tainted; any retention of a tainted variable
// is flagged. Immediate consumption — iterating rows, compacting the
// selection, returning the batch downstream (ownership forwards with
// the pull) — is fine and not flagged. Deliberate stashes whose
// lifetime provably ends before the next pull (a cursor's current
// batch, a lookahead buffer drained before the iterator pulls again)
// carry //lint:allow pragmas stating that argument.

var analyzerBatchView = &Analyzer{
	Name: "batchview",
	Doc:  "*Batch views from a batch iterator's next must be cloneBatch-ed before being retained",
	Run:  runBatchView,
}

func runBatchView(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, batchViewFunc(pkg, fd)...)
			}
		}
	}
	return diags
}

// isNextBatchCall reports whether the call is a batch pull: a function
// or method named next (or nextLive) whose first result is a pointer
// to a named Batch.
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

func batchViewFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	info := pkg.Info

	// Pass 1: collect tainted batch-view variables.
	tainted := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !isNextBatchCall(info, call) {
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
			Analyzer: "batchview",
			Message: fmt.Sprintf("*Batch view %q from next is %s without cloneBatch: the producer reuses the batch on the next pull — retain cloneBatch(%s) instead",
				obj.Name(), how, obj.Name()),
		})
	}

	// Pass 2: flag retention of tainted variables. A cloneBatch(b) (or
	// any other call) on the right-hand side is not a bare identifier
	// and therefore never flags.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 {
				for _, arg := range n.Args[1:] {
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
			// rowRef{b: b, i: i} is the engine's sanctioned transient
			// row-addressing view, built and consumed within one pull;
			// flagging it would drown the real retention sites.
			if tv, ok := info.Types[n]; ok {
				if named := namedOf(tv.Type); named != nil && named.Obj().Name() == "rowRef" {
					return true
				}
			}
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
