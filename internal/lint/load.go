package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// The loader turns directories into type-checked packages using only the
// standard library: go/parser for syntax, go/types for semantics, and the
// go/importer "source" importer for standard-library dependencies. Imports
// within this module are resolved by mapping the import path under the
// go.mod module path onto the repository directory tree and type-checking
// recursively, so the loader needs no `go list` subprocess and works on any
// directory — including fixture packages under testdata/ that the go tool
// itself refuses to build.

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("compsynth/internal/resynth")
	Name  string // package name ("resynth")
	Dir   string
	Files []*ast.File // non-test files, sorted by file name
	Pkg   *types.Package
	Info  *types.Info
	Fset  *token.FileSet
}

// Loader loads and caches packages of one module.
type Loader struct {
	Root    string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package
	conf types.Config
}

// NewLoader builds a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modpath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Root:    root,
		ModPath: modpath,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	l.conf = types.Config{Importer: (*loaderImporter)(l)}
	return l, nil
}

// findModule walks upward from dir to the nearest go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
	}
}

// pathForDir maps a directory inside the module to its import path.
func (l *Loader) pathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// dirForPath is the inverse mapping for import paths under the module.
func (l *Loader) dirForPath(path string) (string, bool) {
	if path == l.ModPath {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load type-checks the package in dir (non-test files only) and returns it.
// Results are cached per import path.
func (l *Loader) Load(dir string) (*Package, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle guard
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		full := filepath.Join(dir, n)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if !buildTagsMatch(src) {
			continue // constrained out (e.g. //go:build ignore)
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	tpkg, err := l.conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	p := &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Dir:   dir,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
		Fset:  l.fset,
	}
	l.pkgs[path] = p
	return p, nil
}

// loadAll type-checks every directory with one loader, in argument order.
func loadAll(dirs []string) (*Loader, []*Package, error) {
	if len(dirs) == 0 {
		return nil, nil, fmt.Errorf("lint: no packages to analyze")
	}
	l, err := NewLoader(dirs[0])
	if err != nil {
		return nil, nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.Load(d)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return l, pkgs, nil
}

// buildTagsMatch evaluates a file's leading build constraints (//go:build
// and legacy // +build lines) against the running toolchain's tag set:
// GOOS, GOARCH, "gc", and every go1.N version tag. Files constrained out —
// most importantly //go:build ignore helpers — are skipped exactly as the
// go tool skips them.
func buildTagsMatch(src []byte) bool {
	ok := func(tag string) bool {
		if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
			return true
		}
		return strings.HasPrefix(tag, "go1") // any release-version tag
	}
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if expr, err := constraint.Parse(trimmed); err == nil {
				if !expr.Eval(ok) {
					return false
				}
			}
			continue
		}
		break // package clause (or /* comment */, which cannot carry tags)
	}
	return true
}

// loaderImporter adapts Loader to types.Importer: module-internal paths are
// type-checked from source in-process, everything else (the standard
// library) goes through the source importer.
type loaderImporter Loader

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(im)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirForPath(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}

// ExpandPatterns resolves sftlint's command-line patterns to package
// directories. A pattern is either a directory or a directory followed by
// "/..." for a recursive walk. Walks skip hidden directories and — matching
// the go tool — directories named "testdata", so fixture packages never leak
// into a default `./...` run. Only directories containing at least one
// non-test .go file are returned.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if !recursive {
			if hasGoFiles(pat) {
				add(pat)
			} else {
				return nil, fmt.Errorf("no Go files in %s", pat)
			}
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(p)
			if p != pat && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
