package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader type-checks the entire dependency universe from source: the
// container carries no compiled export data and no module cache, so
// `go list -deps -test -json` supplies the file sets in topological order
// and go/types checks each package against the already-checked results of
// its imports. The whole standard-library closure of this module checks
// in about two seconds; results are cached per Load.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	ForTest      string // for a test variant "p [t.test]": t
	Dir          string
	Standard     bool
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// universe resolves import paths to type-checked packages, falling back
// to the "vendor/" prefix the standard library's vendored dependencies
// are listed under.
type universe struct {
	pkgs map[string]*types.Package
	// base, if set, resolves what pkgs does not: a test's universe holds
	// only the packages rebuilt for that test, over the plain one.
	base *universe
}

func (u *universe) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := u.pkgs[path]; ok {
		return p, nil
	}
	if p, ok := u.pkgs["vendor/"+path]; ok {
		return p, nil
	}
	if u.base != nil {
		return u.base.Import(path)
	}
	return nil, fmt.Errorf("package %q not loaded", path)
}

// goList runs `go list` in dir with CGO disabled (the pure-Go file sets
// are what a source-only type-check can consume) and decodes the JSON
// package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// loader accumulates parse and check state for one Load call.
type loader struct {
	dir   string
	fset  *token.FileSet
	uni   *universe
	files map[string]*ast.File // absolute path -> parsed file
	// rebuilt lists, per package under test and in topological order, the
	// packages `go list -test` rebuilds for its external test: those that
	// import it, which must see the declarations its in-package test files
	// add (the export_test.go idiom) under the same type identities.
	rebuilt map[string][]*listPkg
}

func newLoader(dir string) *loader {
	return &loader{
		dir:     dir,
		fset:    token.NewFileSet(),
		uni:     &universe{pkgs: map[string]*types.Package{}},
		files:   map[string]*ast.File{},
		rebuilt: map[string][]*listPkg{},
	}
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, n := range names {
		path := filepath.Join(dir, n)
		if f, ok := l.files[path]; ok {
			out = append(out, f)
			continue
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		l.files[path] = f
		out = append(out, f)
	}
	return out, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// check type-checks one file set as package path against the packages of
// uni, recording it there when record is set.
func (l *loader) check(uni *universe, path string, files []*ast.File, info *types.Info, record bool) (*types.Package, error) {
	conf := types.Config{
		Importer: uni,
		// Tolerate recoverable errors in the standard library (e.g.
		// platform-specific declarations the pure-Go file set omits);
		// module packages must check cleanly, enforced by the caller.
		Error: func(error) {},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if record && pkg != nil {
		uni.pkgs[path] = pkg
	}
	return pkg, err
}

// universeOf lists deps of the given patterns (tests included) and
// type-checks every plain package in topological order.
func (l *loader) universeOf(patterns []string) error {
	args := append([]string{"-deps", "-test",
		"-json=ImportPath,ForTest,Dir,Standard,Name,GoFiles,TestGoFiles,XTestGoFiles"}, patterns...)
	pkgs, err := goList(l.dir, args...)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		// Skip test variants ("pkg [pkg.test]", "pkg.test"): the plain
		// package is what import resolution needs, and target packages are
		// re-checked with their test files separately. The importers of a
		// package under test are kept aside for testUniverse.
		if path, _, variant := strings.Cut(p.ImportPath, " ["); variant || strings.HasSuffix(p.ImportPath, ".test") {
			if variant && path != p.ForTest && path != p.ForTest+"_test" {
				p.ImportPath = path
				l.rebuilt[p.ForTest] = append(l.rebuilt[p.ForTest], p)
			}
			continue
		}
		if p.ImportPath == "unsafe" {
			continue
		}
		if _, ok := l.uni.pkgs[p.ImportPath]; ok {
			continue
		}
		files, err := l.parse(p.Dir, p.GoFiles)
		if err != nil {
			return fmt.Errorf("parsing %s: %v", p.ImportPath, err)
		}
		if _, err := l.check(l.uni, p.ImportPath, files, nil, true); err != nil && !p.Standard {
			return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
	}
	return nil
}

// testUniverse returns the universe the external test of path is checked
// in: withTests — the package with its in-package test files — in place of
// the plain package, and every package that imports it checked again on top
// of that, as the go command builds them for the test.
func (l *loader) testUniverse(path string, withTests *types.Package) (*universe, error) {
	uni := &universe{pkgs: map[string]*types.Package{path: withTests}, base: l.uni}
	for _, p := range l.rebuilt[path] {
		files, err := l.parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", p.ImportPath, err)
		}
		if _, err := l.check(uni, p.ImportPath, files, nil, true); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
	}
	return uni, nil
}

// Load type-checks the packages matching patterns (and their whole
// dependency universe) rooted at dir, returning them ready for analysis.
// In-package test files are folded into their package; external test
// packages are returned as separate entries with a "_test" path suffix.
func Load(dir string, patterns []string) (*Program, error) {
	l := newLoader(dir)
	if err := l.universeOf(patterns); err != nil {
		return nil, err
	}

	targets, err := goList(dir, append([]string{
		"-json=ImportPath,Dir,Standard,Name,GoFiles,TestGoFiles,XTestGoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:         l.fset,
		ModulePath:   modulePath(dir),
		NoallocFuncs: map[string]bool{},
	}

	for _, t := range targets {
		if t.Standard {
			continue
		}
		// The linted view of a package includes its in-package test files:
		// the durability and allocation invariants hold for test helpers
		// too (unchecked Close calls in store tests are exactly the class
		// of finding this suite exists for).
		all := append(append([]string{}, t.GoFiles...), t.TestGoFiles...)
		files, err := l.parse(t.Dir, all)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", t.ImportPath, err)
		}
		info := newInfo()
		pkg, err := l.check(l.uni, t.ImportPath, files, info, false)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s (with test files): %v", t.ImportPath, err)
		}
		prog.Pkgs = append(prog.Pkgs, &Package{Path: t.ImportPath, Files: files, Pkg: pkg, Info: info})

		if len(t.XTestGoFiles) > 0 {
			xfiles, err := l.parse(t.Dir, t.XTestGoFiles)
			if err != nil {
				return nil, fmt.Errorf("parsing %s external tests: %v", t.ImportPath, err)
			}
			uni := l.uni
			if len(t.TestGoFiles) > 0 {
				if uni, err = l.testUniverse(t.ImportPath, pkg); err != nil {
					return nil, fmt.Errorf("for %s external tests: %v", t.ImportPath, err)
				}
			}
			xinfo := newInfo()
			xpkg, err := l.check(uni, t.ImportPath+"_test", xfiles, xinfo, false)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s external tests: %v", t.ImportPath, err)
			}
			prog.Pkgs = append(prog.Pkgs, &Package{Path: t.ImportPath + "_test", Files: xfiles, Pkg: xpkg, Info: xinfo})
		}
	}

	indexNoalloc(prog)
	return prog, nil
}

// LoadAdHoc type-checks the .go files of a single directory as one
// package (plus its import closure), for the linttest harness's testdata
// packages. The package is registered under its directory base name.
func LoadAdHoc(dir string) (*Program, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	l := newLoader(dir)
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	var imports []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "unsafe" && !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	if len(imports) > 0 {
		if err := l.universeOf(imports); err != nil {
			return nil, err
		}
	}
	path := filepath.Base(dir)
	info := newInfo()
	pkg, err := l.check(l.uni, path, files, info, false)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", dir, err)
	}
	prog := &Program{
		Fset:         l.fset,
		ModulePath:   path, // same-package calls resolve as module-internal
		Pkgs:         []*Package{{Path: path, Files: files, Pkg: pkg, Info: info}},
		NoallocFuncs: map[string]bool{},
	}
	indexNoalloc(prog)
	return prog, nil
}

// modulePath reads the module directive of dir's go.mod.
func modulePath(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// indexNoalloc records every function annotated //nucleus:noalloc across
// the loaded packages.
func indexNoalloc(prog *Program) {
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if hasDirective(fd.Doc, dirNoalloc) {
					prog.NoallocFuncs[funcDeclKey(pkg.Path, fd)] = true
				}
			}
		}
	}
}
