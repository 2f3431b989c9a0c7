package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. Module-local import
// paths resolve inside the module tree; everything else is delegated to
// the standard library's source importer, so loading needs no network, no
// export data and no module cache — only GOROOT.
//
// When FixtureRoot is set, import paths resolve under that directory
// first; analyzer test fixtures use this to shadow real module packages
// (tiermerge/internal/model, ...) with small stubs, exactly like
// golang.org/x/tools analysistest's GOPATH trees.
type Loader struct {
	Fset        *token.FileSet
	ModulePath  string
	ModuleDir   string
	FixtureRoot string

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
}

// NewLoader builds a loader rooted at the module directory (the directory
// holding go.mod). moduleDir may be "" when only fixtures are loaded.
func NewLoader(moduleDir string) (*Loader, error) {
	l := &Loader{
		Fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	if moduleDir == "" {
		return l, nil
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	l.ModuleDir = abs
	path, err := modulePathOf(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l.ModulePath = path
	return l, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if l.FixtureRoot != "" {
		d := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if hasGoFiles(d) {
			p, err := l.loadDir(path, d)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	if l.ModulePath != "" && (path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.loadDir(path, filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, 0)
}

// Load parses and type-checks the package with the given import path
// (fixture- or module-resolved), memoized.
func (l *Loader) Load(path string) (*Package, error) {
	tp, err := l.ImportFrom(path, "", 0)
	if err != nil {
		return nil, err
	}
	p, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: %s (%s) did not resolve to a source package", path, tp.Path())
	}
	return p, nil
}

// loadDir parses every non-test .go file in dir and type-checks the
// package under the given import path.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// LoadModulePackages loads every package of the module (the ./... set):
// each directory under the module root holding non-test .go files,
// skipping testdata, hidden directories and nested modules (a directory
// with its own go.mod — bench/ — is outside ./..., as for the go tool).
func (l *Loader) LoadModulePackages() ([]*Package, error) {
	if l.ModuleDir == "" {
		return nil, fmt.Errorf("analysis: loader has no module root")
	}
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != l.ModuleDir {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(l.ModuleDir, p)
			if err != nil {
				return err
			}
			ip := l.ModulePath
			if rel != "." {
				ip = l.ModulePath + "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Packages returns every source-loaded package so far (targets and
// module-local dependencies alike), sorted by path.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func hasGoFiles(dir string) bool {
	names, err := goFilesIn(dir)
	return err == nil && len(names) > 0
}

func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Build constraints select the files the compiler would: a
		// package may hold one file per platform for the same function.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
