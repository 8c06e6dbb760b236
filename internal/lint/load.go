package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path
	Dir   string
	Files []*ast.File // non-test files, type-checked
	Types *types.Package
	Info  *types.Info
	Sizes types.Sizes
}

// Loader parses and type-checks packages without the go/packages machinery.
// Standard-library imports are resolved from $GOROOT source via the
// compiler-independent "source" importer; module-internal imports are mapped
// to directories by Resolve. Everything is cached, so a whole-tree lint run
// type-checks each package exactly once.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its sources.
	// Returning ok=false defers the path to the standard-library importer.
	Resolve func(path string) (dir string, ok bool)

	std      types.ImporterFrom
	pkgs     map[string]*Package
	checking map[string]bool
	sizes    types.Sizes
}

// NewLoader returns a loader resolving the single module modPath rooted at
// modRoot — the shape the simlint driver and the analyzer unit tests use.
func NewLoader(modRoot, modPath string) *Loader {
	return newLoader(func(path string) (string, bool) {
		if path == modPath {
			return modRoot, true
		}
		if rel, ok := strings.CutPrefix(path, modPath+"/"); ok {
			return filepath.Join(modRoot, filepath.FromSlash(rel)), true
		}
		return "", false
	})
}

func newLoader(resolve func(string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		Fset:     fset,
		Resolve:  resolve,
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
		// The layout model the gc compiler uses on the platforms the
		// benchmarks run on; fieldalign's byte counts assume it.
		sizes: types.SizesFor("gc", "amd64"),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// Import implements types.Importer so the loader can hand itself to
// types.Config: module-internal dependencies of the package under analysis
// are loaded (and analyzed later from cache) rather than stubbed.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if _, ok := l.Resolve(path); !ok {
		return l.std.Import(path)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// Load parses and type-checks the package at the given import path,
// returning the cached result on repeat calls.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %q to a directory", path)
	}
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, Sizes: l.sizes}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Fset:  l.Fset,
		Path:  path,
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
		Sizes: l.sizes,
	}
	l.pkgs[path] = p
	return p, nil
}

// goFileNames lists a directory's non-test Go files, sorted so parse order
// (and therefore diagnostic order) is deterministic.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var src []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		src = append(src, name)
	}
	sort.Strings(src)
	return src, nil
}

// ModulePackages walks the module rooted at modRoot and returns the import
// paths of every package directory, skipping testdata trees and hidden
// directories. This is the "./..." of the simlint driver.
func ModulePackages(modRoot, modPath string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != modRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		src, err := goFileNames(p)
		if err != nil {
			return err
		}
		if len(src) == 0 {
			return nil
		}
		rel, err := filepath.Rel(modRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, modPath)
		} else {
			paths = append(paths, modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
