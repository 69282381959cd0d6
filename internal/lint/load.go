package lint

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

// Package is one loaded, parsed, type-checked analysis unit. In-package
// test files are merged into their package's unit; external test packages
// (package foo_test) form their own unit with " [xtest]" appended to Path.
type Package struct {
	// Name is the package name.
	Name string
	// Path is the import path (plus " [xtest]" for external test units).
	Path string
	// RelPath is the module-relative directory ("." for the root package);
	// allowlists match against it.
	RelPath string
	// Dir is the absolute directory.
	Dir string
	// Fset resolves positions.
	Fset *token.FileSet
	// Files are the parsed files of the unit, test files included.
	Files []*ast.File
	// Types and Info carry the type checker's results. Info is always
	// non-nil; its maps are best-effort when TypeErrors is non-empty.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems (the analyzers degrade
	// gracefully; callers may surface these as warnings).
	TypeErrors []error

	isTest map[*ast.File]bool
}

// NonTestFiles returns the unit's files excluding _test.go files.
func (p *Package) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.isTest[f] {
			out = append(out, f)
		}
	}
	return out
}

// Loader discovers, parses, and type-checks the packages of one module
// using only the standard library: go/build for file sets, go/parser for
// syntax, go/types with the source importer for semantics. Module-internal
// imports are resolved by the loader itself (the GOPATH-era source importer
// knows nothing about modules); everything else falls through to the
// stdlib source importer.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's import path from go.mod.
	ModulePath string
	// Fset is shared by every parsed file.
	Fset *token.FileSet

	std      types.ImporterFrom
	imported map[string]*types.Package
	failed   map[string]error
	// checking holds the module-internal paths being type-checked right
	// now; re-entering one of them is an import cycle.
	checking map[string]bool
}

// NewLoader locates the enclosing module of dir and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	return NewLoaderAt(root, modPath), nil
}

// NewLoaderAt returns a loader rooted at root with the given module path.
// Tests use it to treat a fixture directory tree as a tiny module.
func NewLoaderAt(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modulePath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		imported:   make(map[string]*types.Package),
		failed:     make(map[string]error),
		checking:   make(map[string]bool),
	}
}

// LoadAll loads every package under the module root, skipping testdata,
// vendor, hidden, and underscore-prefixed directories, in sorted directory
// order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		got, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

// LoadDir loads the package in one directory: the base unit (library files
// plus in-package tests) and, when present, the external test package. A
// directory without Go files yields no packages and no error.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	rel, importPath, err := l.relPath(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	base, err := l.checkUnit(dir, importPath, rel, bp.GoFiles, bp.TestGoFiles)
	if err != nil {
		return nil, err
	}
	if base != nil {
		pkgs = append(pkgs, base)
	}
	if len(bp.XTestGoFiles) > 0 {
		xt, err := l.checkUnit(dir, importPath+" [xtest]", rel, nil, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		if xt != nil {
			pkgs = append(pkgs, xt)
		}
	}
	return pkgs, nil
}

func (l *Loader) relPath(dir string) (rel, importPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	rel, err = filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return "", "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return rel, l.ModulePath, nil
	}
	return rel, l.ModulePath + "/" + rel, nil
}

// checkUnit parses and type-checks one analysis unit. goFiles are library
// sources, testFiles are _test.go sources; either may be empty (but not
// both).
func (l *Loader) checkUnit(dir, path, rel string, goFiles, testFiles []string) (*Package, error) {
	if len(goFiles)+len(testFiles) == 0 {
		return nil, nil
	}
	pkg := &Package{
		Path:    path,
		RelPath: rel,
		Dir:     dir,
		Fset:    l.Fset,
		isTest:  make(map[*ast.File]bool),
	}
	for _, group := range [2][]string{goFiles, testFiles} {
		for _, name := range group {
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			pkg.Files = append(pkg.Files, f)
		}
	}
	for _, f := range pkg.Files[len(goFiles):] {
		pkg.isTest[f] = true
	}
	if len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].Name.Name
	}
	pkg.Info = newInfo()
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked by the loader (library files only, cached — failures too,
// so a broken package is diagnosed once, not once per dependent);
// everything else is delegated to the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	rel, ok := l.moduleRel(path)
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p, ok := l.imported[path]; ok {
		return p, nil
	}
	if err, ok := l.failed[path]; ok {
		return nil, err
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	tpkg, err := l.checkImport(path, rel)
	delete(l.checking, path)
	if err != nil {
		l.failed[path] = err
	} else {
		l.imported[path] = tpkg
	}
	return tpkg, err
}

// checkImport parses and type-checks the library files of one
// module-internal package.
func (l *Loader) checkImport(path, rel string) (*types.Package, error) {
	pdir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	bp, err := build.Default.ImportDir(pdir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(pdir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	tpkg, err := conf.Check(path, l.Fset, files, newInfo())
	if err != nil {
		return nil, fmt.Errorf("lint: import %q: %w", path, err)
	}
	return tpkg, nil
}

// moduleRel maps an import path inside the module to its module-relative
// directory.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.ModulePath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}
