package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockdiscipline: the serving tier's scaling story rests on readers
// never blocking on writers (PRs 4/7): query paths take member read
// locks only, and the shard store's writeMu — which serialises
// check-then-act routing against application — is a writer-only
// mutex. A read path that acquires any write lock deadlocks against
// its own read locks or serialises every concurrent reader.
//
// The analyzer builds a static call graph over the whole program
// (function literals are attributed to their enclosing declaration;
// calls through interfaces fan out to every in-program concrete method
// set that implements the interface) and walks it from the reader
// entry points — methods named QueryStream, QueryStreamCtx, or Explain
// — flagging every reachable write-lock acquisition:
//
//   - .Lock() on a field named writeMu,
//   - .Lock() on a sync.RWMutex (the write side; readers use RLock),
//   - .Lock() on a type named Store (the exported member write lock),
//   - any call to a function named lockWrite or lockAllWrite.
//
// The flush entry point — methods named ApplyFlush — is the opposite
// kind of path: a WRITE path that refines under read locks and commits
// under write locks. There the hazard is the upgrade: taking a write
// lock while the read lock taken earlier on the same mutex is still
// held deadlocks against oneself (RWMutex is not upgradable), and a
// reader admitted in between would see the flush half applied. In every
// function reachable from a flush entry the analyzer therefore flags a
// write acquisition (X.Lock(), lockWrite/lockAllWrite) that lexically
// follows a read acquisition of the same thing (X.RLock(), or a
// lockRead/lockAllRead helper whose returned release is still
// uncalled) with no release (X.RUnlock(), release()) in between.

var analyzerLockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no write-lock acquisition may be reachable from the reader entry points (QueryStream/QueryStreamCtx/Explain/ExplainAnalyze); no read-to-write lock upgrade inside the flush entry point (ApplyFlush)",
	Run:  runLockDiscipline,
}

var readerEntryNames = map[string]bool{
	"QueryStream":    true,
	"QueryStreamCtx": true,
	"Explain":        true,
	"ExplainAnalyze": true,
}

// writerEntryNames are the flush entry points: write paths whose
// read-then-write locking must release before it upgrades.
var writerEntryNames = map[string]bool{"ApplyFlush": true}

type forbiddenOp struct {
	pos  token.Pos
	desc string
}

type funcNode struct {
	fn        *types.Func
	pkg       *Package
	decl      *ast.FuncDecl
	callees   []*types.Func
	ifaceCall []ifaceCallSite
	forbidden []forbiddenOp
}

type ifaceCallSite struct {
	iface *types.Interface
	name  string
}

func runLockDiscipline(prog *Program) []Diagnostic {
	nodes := make(map[*types.Func]*funcNode)
	var order []*types.Func // deterministic iteration

	// Collect every declared function with a body.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			if isTestFile(pkg.Fset, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &funcNode{fn: fn, pkg: pkg, decl: fd}
				collectCallsAndLocks(pkg, fd, node)
				nodes[fn] = node
				order = append(order, fn)
			}
		}
	}

	// Expand interface call sites: an interface method call may reach
	// any in-program concrete method of a type implementing it.
	var namedTypes []*types.Named
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, n)
				}
			}
		}
	}
	for _, fn := range order {
		node := nodes[fn]
		for _, ic := range node.ifaceCall {
			for _, n := range namedTypes {
				impl := types.Type(n)
				if !types.Implements(impl, ic.iface) {
					impl = types.NewPointer(n)
					if !types.Implements(impl, ic.iface) {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, n.Obj().Pkg(), ic.name)
				if m, ok := obj.(*types.Func); ok {
					node.callees = append(node.callees, m)
				}
			}
		}
	}

	diags := flushUpgrades(nodes, order)

	// BFS from each reader entry, remembering one parent per visited
	// function so diagnostics can show a witness call chain. A
	// forbidden site is reported once, for the first entry reaching it.
	reported := make(map[token.Pos]bool)
	sort.Slice(order, func(i, j int) bool { return order[i].Pos() < order[j].Pos() })
	for _, entry := range order {
		if !readerEntryNames[entry.Name()] {
			continue
		}
		if sig, ok := entry.Type().(*types.Signature); !ok || sig.Recv() == nil {
			continue // entry points are methods on store types
		}
		parent := map[*types.Func]*types.Func{entry: nil}
		queue := []*types.Func{entry}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			node := nodes[fn]
			if node == nil {
				continue
			}
			for _, op := range node.forbidden {
				if reported[op.pos] {
					continue
				}
				reported[op.pos] = true
				diags = append(diags, Diagnostic{
					Pos:      node.pkg.Fset.Position(op.pos),
					Analyzer: "lockdiscipline",
					Message: fmt.Sprintf("%s is reachable from reader entry %s (%s): read paths must never take a write lock",
						op.desc, funcName(entry), chain(parent, fn)),
				})
			}
			for _, callee := range node.callees {
				if _, seen := parent[callee]; seen {
					continue
				}
				if _, inProgram := nodes[callee]; !inProgram {
					continue
				}
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return diags
}

// flushUpgrades walks the call graph from every flush entry and reports
// read-to-write lock upgrades in the functions it reaches.
func flushUpgrades(nodes map[*types.Func]*funcNode, order []*types.Func) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[*types.Func]bool)
	for _, entry := range order {
		if !writerEntryNames[entry.Name()] {
			continue
		}
		queue := []*types.Func{entry}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			node := nodes[fn]
			if node == nil || seen[fn] {
				continue
			}
			seen[fn] = true
			diags = append(diags, upgradeSites(node, entry)...)
			queue = append(queue, node.callees...)
		}
	}
	return diags
}

// upgradeSites scans one function in source order, tracking which read
// acquisitions are still unreleased when a write acquisition appears.
func upgradeSites(node *funcNode, entry *types.Func) []Diagnostic {
	info := node.pkg.Info
	held := make(map[string]bool)    // receiver text of X.RLock() not yet RUnlock()ed
	pending := make(map[string]bool) // release funcs of lockRead-style helpers not yet called
	deferred := false                // a lockRead-style helper released only by defer
	var diags []Diagnostic
	report := func(pos token.Pos, what, read string) {
		diags = append(diags, Diagnostic{
			Pos:      node.pkg.Fset.Position(pos),
			Analyzer: "lockdiscipline",
			Message: fmt.Sprintf("%s while the read lock from %s is still held, inside flush entry %s (%s): release before upgrading",
				what, read, funcName(entry), funcName(node.fn)),
		})
	}
	readHelper := func(call *ast.CallExpr) bool {
		fn := calleeFunc(info, call)
		return fn != nil && (fn.Name() == "lockRead" || fn.Name() == "lockAllRead")
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			// release := s.lockRead(...)
			if len(v.Lhs) == 1 && len(v.Rhs) == 1 {
				if call, ok := v.Rhs[0].(*ast.CallExpr); ok && readHelper(call) {
					if id, ok := v.Lhs[0].(*ast.Ident); ok {
						pending[id.Name] = true
					}
				}
			}
		case *ast.DeferStmt:
			// defer s.lockRead(...)(): held to the end of the function.
			if inner, ok := v.Call.Fun.(*ast.CallExpr); ok && readHelper(inner) {
				deferred = true
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && pending[id.Name] {
				delete(pending, id.Name)
				return true
			}
			if fn := calleeFunc(info, v); fn != nil && (fn.Name() == "lockWrite" || fn.Name() == "lockAllWrite") {
				for name := range pending {
					report(v.Pos(), fn.Name(), name)
				}
				if deferred {
					report(v.Pos(), fn.Name(), "a deferred lockRead")
				}
				return true
			}
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := types.ExprString(sel.X)
			switch sel.Sel.Name {
			case "RLock":
				held[recv] = true
			case "RUnlock":
				delete(held, recv)
			case "Lock":
				if desc, isWrite := forbiddenLock(info, sel); isWrite && held[recv] {
					report(v.Pos(), desc, recv+".RLock")
				}
			}
		}
		return true
	})
	return diags
}

// chain renders the witness call path entry → ... → fn.
func chain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = parent[f] {
		names = append(names, funcName(f))
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// collectCallsAndLocks records, for one function declaration (function
// literals included), its statically resolvable callees, its interface
// call sites, and any write-lock acquisitions it performs directly.
func collectCallsAndLocks(pkg *Package, fd *ast.FuncDecl, node *funcNode) {
	info := pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if op, ok := forbiddenLock(info, sel); ok {
				node.forbidden = append(node.forbidden, forbiddenOp{pos: call.Pos(), desc: op})
			}
			if s, ok := info.Selections[sel]; ok {
				if types.IsInterface(s.Recv()) {
					if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
						node.ifaceCall = append(node.ifaceCall, ifaceCallSite{iface: iface, name: sel.Sel.Name})
						return true
					}
				}
			}
		}

		if fn := calleeFunc(info, call); fn != nil {
			if fn.Name() == "lockAllWrite" || fn.Name() == "lockWrite" {
				node.forbidden = append(node.forbidden, forbiddenOp{pos: call.Pos(), desc: fn.Name() + " (member write locks)"})
			}
			node.callees = append(node.callees, fn)
		}
		return true
	})
}

// forbiddenLock classifies a selector call as a write-lock
// acquisition.
func forbiddenLock(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	if sel.Sel.Name != "Lock" {
		return "", false
	}
	if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && x.Sel.Name == "writeMu" {
		return "writer mutex writeMu.Lock", true
	}
	if tv, ok := info.Types[sel.X]; ok {
		if typeIs(tv.Type, "sync", "RWMutex") {
			return "RWMutex write Lock", true
		}
		if n := namedOf(tv.Type); n != nil && n.Obj().Name() == "Store" {
			return "Store.Lock (member write lock)", true
		}
	}
	return "", false
}
