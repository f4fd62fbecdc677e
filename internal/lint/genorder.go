package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// genorder: the result cache validates generation vectors lock-free
// (PR 7), which is only sound because every shard write path registers
// its routing knowledge — track() — BEFORE any member-store generation
// bumps. Invert the order and a validator racing the write can see the
// new generation while the fan-out verdict it validates against was
// computed from pre-write routing knowledge: a stale cached result
// survives.
//
// The analyzer checks, within each function of a package named shard
// that calls track(), that no member-store mutation (a method named
// Add, Remove, RemoveEncoded, InsertAll, InsertEncodedLocked, or ApplyPlan
// on a Store type declared in another package) and no direct generation bump (.Add on a field
// named gen or knowGen) lexically precedes the first track() call.
// Functions without a track() call — pure helpers, read paths — are
// out of scope, as is track itself.
//
// A slice's time summary (publishSpan) and the knowGen bump it may
// cause must likewise precede the Unlock that bumps the member's
// generation: no publishSpan call and no knowGen.Add may follow a
// non-deferred Unlock on a member Store in the same function, and the
// release lockWrite returns must be deferred (defer s.lockWrite(h)()),
// so that everything the hold publishes precedes it.

var analyzerGenOrder = &Analyzer{
	Name: "genorder",
	Doc:  "shard write paths must track routing knowledge before bumping member-store generations, and publish time summaries before releasing member write locks",
	Run:  runGenOrder,
}

var mutatingMethods = map[string]bool{
	"Add":           true,
	"Remove":        true,
	"RemoveEncoded": true,
	"InsertAll":     true,

	"InsertEncodedLocked": true,
	"ApplyPlan":           true,
}

func runGenOrder(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if pkg.Name != "shard" {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					diags = append(diags, genOrderFunc(pkg, fd)...)
				}
			}
		}
	}
	return diags
}

func genOrderFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	// Locate the first routing-knowledge registration.
	track := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && callee(call) == "track" {
			track = call.Pos()
		}
		return !track.IsValid()
	})

	var diags []Diagnostic
	released := false // a member Unlock has run: the generation moved
	walkParents(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		parent := stack[len(stack)-1]
		msg := ""
		switch {
		case fd.Name.Name != "track" && call.Pos() < track && genBump(pkg, call) != "":
			msg = genBump(pkg, call) + " precedes the routing-knowledge track() call: track BEFORE bumping generations, or lock-free cache validation can accept results under pre-write routing"
		case released && (callee(call) == "publishSpan" || counter(call) == "knowGen"):
			what := "time-summary publication publishSpan"
			if callee(call) == "Add" {
				what = "generation bump knowGen.Add"
			}
			msg = what + " follows a member-store Unlock: publish BEFORE the Unlock bumps the generation, or the router reads a summary older than the data"
		case callee(call) == "lockWrite" && !deferredResult(call, stack):
			msg = "lockWrite's release is not deferred: defer it, so that everything the hold publishes precedes it"
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Unlock" && memberStore(pkg, sel) != nil {
			_, deferred := parent.(*ast.DeferStmt)
			released = released || !deferred
		}
		if msg != "" {
			diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(call.Pos()), Analyzer: "genorder", Message: msg})
		}
		return true
	})
	return diags
}

// callee is the bare name a call invokes: f for f(...) and x.f(...).
func callee(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// memberStore reports a selector on a Store type declared in another
// package — a member store.
func memberStore(pkg *Package, sel *ast.SelectorExpr) *types.Named {
	if n := recvNamed(pkg.Info, sel); n != nil && n.Obj().Name() == "Store" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg() != pkg.Types {
		return n
	}
	return nil
}

// counter names the generation counter field (gen or knowGen) a call
// adds to, or returns "".
func counter(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
		if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && (x.Sel.Name == "gen" || x.Sel.Name == "knowGen") {
			return x.Sel.Name
		}
	}
	return ""
}

// genBump describes a generation bump — a mutating method on a member
// Store, or a direct .Add on a generation counter — or returns "".
func genBump(pkg *Package, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mutatingMethods[sel.Sel.Name] {
		if n := memberStore(pkg, sel); n != nil {
			return fmt.Sprintf("member-store mutation %s.Store.%s", n.Obj().Pkg().Name(), sel.Sel.Name)
		}
	}
	if name := counter(call); name != "" {
		return "generation bump " + name + ".Add"
	}
	return ""
}

// deferredResult reports whether the function call returns is what a
// defer statement calls, as in defer s.lockWrite(h)().
func deferredResult(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	outer, ok := stack[len(stack)-1].(*ast.CallExpr)
	d, isDefer := stack[len(stack)-2].(*ast.DeferStmt)
	return ok && isDefer && outer.Fun == call && d.Call == outer
}
