package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The loader type-checks every module package from source (so analyzers
// see bodies and cross-package *types.Func identity holds for the call
// graph) and resolves everything else — the standard library — through
// the toolchain's compiled export data, located via `go list -export`.
// No network, no module downloads: the module has no external deps and
// the stdlib export data comes out of the local build cache.

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// exportImporter resolves import paths to type information from gc
// export data files, finding them lazily via `go list -export` when
// the initial listing didn't provide one (fixture loads start empty).
type exportImporter struct {
	gc    types.Importer
	files map[string]string // import path -> export data file
	local map[string]*types.Package
}

func newExportImporter(fset *token.FileSet) *exportImporter {
	e := &exportImporter{
		files: make(map[string]string),
		local: make(map[string]*types.Package),
	}
	e.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := e.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	return e
}

func (e *exportImporter) exportFile(path string) (string, error) {
	if f, ok := e.files[path]; ok {
		return f, nil
	}
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		return "", fmt.Errorf("locating export data for %q: %v", path, err)
	}
	f := strings.TrimSpace(string(out))
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	e.files[path] = f
	return f, nil
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := e.local[path]; ok {
		return p, nil
	}
	return e.gc.Import(path)
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp *exportImporter, path, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		full := name
		if dir != "" && !filepath.IsAbs(name) {
			full = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, displayPath(full), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	if len(parsed) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, fset, parsed, info)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, firstErr)
	}
	return &Package{
		Name:  tpkg.Name(),
		Path:  path,
		Fset:  fset,
		Files: parsed,
		Types: tpkg,
		Info:  info,
	}, nil
}

// displayPath renders file paths relative to the working directory
// when possible, so diagnostics read `internal/shard/shard.go:663`.
func displayPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}

// LoadPackages loads and type-checks the module packages matching the
// given `go list` patterns (plus their in-module dependencies, which
// are type-checked but not analyzed). Test files are not loaded: the
// invariants gate production code.
func LoadPackages(patterns ...string) (*Program, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Imports,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset)
	prog := &Program{Fset: fset}

	// -deps emits dependencies before their importers, so one pass in
	// stream order type-checks every module package after its imports.
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Standard {
			if lp.Export != "" {
				imp.files[lp.ImportPath] = lp.Export
			}
			continue
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		imp.local[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			prog.Pkgs = append(prog.Pkgs, pkg)
		}
	}
	return prog, nil
}

// LoadFixtureTree loads a GOPATH-style fixture tree rooted at dir:
// every subdirectory holding .go files is one package whose import
// path is its slash-separated path relative to dir. Fixture packages
// may import each other by those relative paths and the standard
// library; _test.go files are loaded too.
func LoadFixtureTree(dir string) (*Program, error) {
	pkgFiles := make(map[string][]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		pkgFiles[key] = append(pkgFiles[key], path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset)
	prog := &Program{Fset: fset}

	// Topologically order fixture packages by their fixture-internal
	// imports (parse import clauses only; cheap and sufficient).
	paths := make([]string, 0, len(pkgFiles))
	for p := range pkgFiles {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	deps := make(map[string][]string)
	for _, p := range paths {
		for _, file := range pkgFiles[p] {
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if _, ok := pkgFiles[ip]; ok {
					deps[p] = append(deps[p], ip)
				}
			}
		}
	}
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("fixture import cycle at %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		for _, d := range deps[p] {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	for _, p := range order {
		files := pkgFiles[p]
		sort.Strings(files)
		pkg, err := checkPackage(fset, imp, p, "", files)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		imp.local[p] = pkg.Types
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}
