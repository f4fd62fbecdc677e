// Package lint is a project-specific static-analysis driver enforcing
// the engine's concurrency and lifetime invariants mechanically —
// the rules that previously lived only in comments and review
// vigilance. It is stdlib-only (go/parser, go/ast, go/types) so it
// builds and runs offline; cmd/reprolint is the CLI front end and
// `make lint` / CI run it over the whole module.
//
// The analyzer suite:
//
//   - cursorclose: every cursor obtained from QueryStream,
//     QueryStreamCtx, Evaluator.Run or Evaluator.RunCompiled must be
//     Closed, returned, or handed to an owner — a leaked cursor pins a
//     store read lock forever.
//   - bindingclone: a Row yielded by Cursor.Next is a view into the
//     engine's current batch (or the fan-out merge's current row),
//     reused on the next pull; retaining one (struct field, slice,
//     map, channel) requires an interposing Clone call.
//   - batchview: the columnar analogue — a *Batch yielded by a batch
//     iterator's next is owned by the producer and reused on the next
//     pull; retaining one requires an interposing cloneBatch call.
//   - lockdiscipline: no write-lock acquisition (writeMu, RWMutex
//     write Lock, member.Lock, lockWrite) is reachable from the reader
//     entry points (QueryStream, QueryStreamCtx, Explain) via a static
//     call-graph walk; and the flush entry point (ApplyFlush), a write
//     path that reads before it commits, never takes a write lock
//     while still holding the read lock it took on the same mutex.
//   - genorder: in package strabon's write paths, routing knowledge
//     must be tracked BEFORE member generations bump, and time
//     summaries published BEFORE member write locks release, or the
//     result cache validates against stale routing vectors.
//
// Deliberate exceptions are annotated in source as
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it; the driver
// suppresses matching diagnostics and rejects malformed or
// unknown-analyzer pragmas.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package under analysis.
type Package struct {
	Name  string // package name
	Path  string // import path (fixture-relative for test fixtures)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the full set of packages one reprolint invocation
// analyzes, in dependency order (imports before importers), sharing
// one FileSet and one type-checker universe so cross-package object
// identity holds (the lockdiscipline call graph depends on it).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	allows    []allowPragma
	pragmaDia []Diagnostic
}

// Analyzer is one named invariant check over a Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerCursorClose,
		analyzerBindingClone,
		analyzerBatchView,
		analyzerLockDiscipline,
		analyzerGenOrder,
	}
}

// allowPragma is one parsed //lint:allow comment.
type allowPragma struct {
	file     string
	line     int // the comment's own line; it covers line and line+1
	analyzer string
}

const allowPrefix = "//lint:allow "

// collectPragmas scans a package's comments for //lint:allow pragmas,
// recording valid ones and reporting malformed or unknown-analyzer
// ones as driver diagnostics (a pragma that silently fails to parse
// would un-suppress nothing and suppress review instead).
func (prog *Program) collectPragmas(pkg *Package, known map[string]bool) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSpace(allowPrefix)) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, strings.TrimSpace(allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					prog.pragmaDia = append(prog.pragmaDia, Diagnostic{
						Pos:      pos,
						Analyzer: "pragma",
						Message:  "malformed //lint:allow pragma: want `//lint:allow <analyzer> <reason>`",
					})
					continue
				}
				if !known[fields[0]] {
					prog.pragmaDia = append(prog.pragmaDia, Diagnostic{
						Pos:      pos,
						Analyzer: "pragma",
						Message:  fmt.Sprintf("unknown analyzer %q in //lint:allow pragma", fields[0]),
					})
					continue
				}
				prog.allows = append(prog.allows, allowPragma{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
				})
			}
		}
	}
}

// suppressed reports whether an //lint:allow pragma for the
// diagnostic's analyzer sits on its line or the line directly above.
func (prog *Program) suppressed(d Diagnostic) bool {
	for _, a := range prog.allows {
		if a.analyzer != d.Analyzer || a.file != d.Pos.Filename {
			continue
		}
		if a.line == d.Pos.Line || a.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// RunAnalyzers runs every analyzer over the program, filters
// pragma-suppressed findings, and returns the surviving diagnostics in
// file/line order (pragma errors included — a broken pragma is itself
// a finding).
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	prog.allows = nil
	prog.pragmaDia = nil
	for _, pkg := range prog.Pkgs {
		prog.collectPragmas(pkg, known)
	}
	var out []Diagnostic
	out = append(out, prog.pragmaDia...)
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			if !prog.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// --- shared AST/type helpers ---

// isTestFile reports whether the position's file is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil for builtins, conversions
// and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isMethodCall reports whether the selector call goes through a
// receiver value (as opposed to a package-qualified function call).
func isMethodCall(info *types.Info, sel *ast.SelectorExpr) bool {
	_, ok := info.Selections[sel]
	return ok
}

// namedOf unwraps pointers and aliases down to the *types.Named type,
// or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// recvNamed returns the named type of a method call's receiver, or nil.
func recvNamed(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	return namedOf(s.Recv())
}

// typeIs reports whether t (possibly behind a pointer) is the named
// type pkgName.typeName.
func typeIs(t types.Type, pkgName, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// walkParents traverses root, invoking fn with each node and the stack
// of its ancestors (outermost first, not including n itself).
func walkParents(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Still push: Inspect will descend only if we return true,
			// so mirror its contract by skipping the subtree.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// containsIdentOf reports whether any identifier inside node resolves
// to obj.
func containsIdentOf(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && identObj(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// funcName renders a function or method name for diagnostics:
// "(*Store).QueryStream" or "MaterialiseQuery".
func funcName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			if n := namedOf(p.Elem()); n != nil {
				return "(*" + n.Obj().Name() + ")." + fn.Name()
			}
		}
		if n := namedOf(t); n != nil {
			return "(" + n.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}
