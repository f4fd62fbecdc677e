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

var analyzerGenOrder = &Analyzer{
	Name: "genorder",
	Doc:  "shard write paths must track routing knowledge before bumping member-store generations",
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
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "track" {
					continue
				}
				diags = append(diags, genOrderFunc(pkg, fd)...)
			}
		}
	}
	return diags
}

func genOrderFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	info := pkg.Info

	// Locate the first routing-knowledge registration.
	firstTrack := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if firstTrack.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "track" {
				firstTrack = call.Pos()
			}
		case *ast.Ident:
			if fun.Name == "track" {
				firstTrack = call.Pos()
			}
		}
		return !firstTrack.IsValid()
	})
	if !firstTrack.IsValid() {
		return nil
	}

	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= firstTrack {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if desc, ok := genBumpCall(pkg, info, sel); ok {
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(call.Pos()),
				Analyzer: "genorder",
				Message: fmt.Sprintf("%s precedes the routing-knowledge track() call: track BEFORE bumping generations, or lock-free cache validation can accept results under pre-write routing",
					desc),
			})
		}
		return true
	})
	return diags
}

// genBumpCall classifies a selector call as a generation bump: a
// mutating method on a member Store from another package, or a direct
// .Add on a generation counter field.
func genBumpCall(pkg *Package, info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	if mutatingMethods[sel.Sel.Name] {
		if n := recvNamed(info, sel); n != nil && n.Obj().Name() == "Store" &&
			n.Obj().Pkg() != nil && n.Obj().Pkg() != pkg.Types {
			return fmt.Sprintf("member-store mutation %s.%s", n.Obj().Pkg().Name()+".Store", sel.Sel.Name), true
		}
	}
	if sel.Sel.Name == "Add" {
		if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if name := x.Sel.Name; name == "gen" || name == "knowGen" {
				return fmt.Sprintf("generation bump %s.Add", name), true
			}
		}
	}
	return "", false
}
