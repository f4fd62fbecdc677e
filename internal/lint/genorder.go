package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// genorder: the result cache validates generation vectors lock-free,
// which is only sound because every write path of the store's router
// registers its routing knowledge — track() — BEFORE any member
// generation bumps. Invert the order and a validator racing the write
// can see the new generation while the fan-out verdict it validates
// against was computed from pre-write routing knowledge: a stale cached
// result survives.
//
// The analyzer checks, within each function of the router's package
// (package strabon) that calls track(), that no member mutation (a
// method named Add, addEncoded, Remove, RemoveEncoded, InsertAll,
// InsertEncodedLocked, or ApplyPlan on the package's member type) and no
// direct generation bump (.Add on a field named gen or knowGen)
// lexically precedes the first track() call. Functions without a
// track() call — pure helpers, read paths — are out of scope, as is
// track itself.
//
// A slice's time summary (publishSpan) and the knowGen bump it may
// cause must likewise precede the release that bumps the member's
// generation: no publishSpan call and no knowGen.Add may follow a
// non-deferred release of a member's write lock (m.unlock() or
// m.mu.Unlock()) in the same function, and the release lockWrite
// returns must be deferred (defer s.lockWrite(h)()), so that everything
// the hold publishes precedes it.

var analyzerGenOrder = &Analyzer{
	Name: "genorder",
	Doc:  "the store's write paths must track routing knowledge before bumping member generations, and publish time summaries before releasing member write locks",
	Run:  runGenOrder,
}

// routerPackage names the package whose write paths genorder checks,
// and memberType the type of its members.
const (
	routerPackage = "strabon"
	memberType    = "member"
)

var mutatingMethods = map[string]bool{
	"Add":           true,
	"addEncoded":    true,
	"Remove":        true,
	"RemoveEncoded": true,
	"InsertAll":     true,

	"InsertEncodedLocked": true,
	"ApplyPlan":           true,
}

func runGenOrder(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if pkg.Name != routerPackage {
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
	released := false // a member write lock was released: the generation moved
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
			msg = what + " follows a member write-lock release: publish BEFORE the release bumps the generation, or the router reads a summary older than the data"
		case callee(call) == "lockWrite" && !deferredResult(call, stack):
			msg = "lockWrite's release is not deferred: defer it, so that everything the hold publishes precedes it"
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && memberRelease(pkg, sel) {
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

// isMember reports a type that is the package's member type.
func isMember(pkg *Package, t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == memberType && n.Obj().Pkg() == pkg.Types
}

// memberMethod reports a method call on a member.
func memberMethod(pkg *Package, sel *ast.SelectorExpr) bool {
	s, ok := pkg.Info.Selections[sel]
	return ok && isMember(pkg, s.Recv())
}

// memberRelease reports the release of a member's write lock: m.unlock(),
// which publishes the generation, or m.mu.Unlock() directly.
func memberRelease(pkg *Package, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "unlock":
		return memberMethod(pkg, sel)
	case "Unlock":
		mu, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		return ok && mu.Sel.Name == "mu" && isMember(pkg, pkg.Info.TypeOf(mu.X))
	}
	return false
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

// genBump describes a generation bump — a mutating method on a member,
// or a direct .Add on a generation counter — or returns "".
func genBump(pkg *Package, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mutatingMethods[sel.Sel.Name] && memberMethod(pkg, sel) {
		return fmt.Sprintf("member mutation %s.%s", memberType, sel.Sel.Name)
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
