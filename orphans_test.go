package fidelity

import (
	"bytes"
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
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// orphanAllowlist names the exported declarations under internal/ that
// TestEveryExportHasACaller keeps although no caller reaches them, each with
// its reason.
var orphanAllowlist = map[string]string{
	"numerics.MustQuantizer": "a Must… constructor: the panicking form of NewQuantizer for formats known valid at compile time",
}

// TestEveryExportHasACaller holds internal/ to the orphan rule of
// internal/README.md. It type-checks the module from source, over the gc
// export data of the standard library, and computes which declarations are
// live. Live from the start are every non-test declaration of a package main
// (cmd/*, examples/*, benchmark), the root package's exported API, package
// variable initializers and init functions, and every identifier a test file
// uses from a package other than its own. Live besides is whatever live
// non-test code references (so a type named in a live signature or field), a
// method of a live type that has the name and signature of some interface's
// method, and a constant of a live named type. An exported declaration under
// internal/ that is not live fails, unless orphanAllowlist names it with a
// reason; so does an allowlist entry that names no such declaration or a live
// one. Names used only inside their own package are live or dead with their
// users: renaming one removes no code, so it is never a finding of its own.
// Last, every package a row of internal/README.md names as a product caller
// must import that row's package from a non-test file.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)
	live := m.live()

	exported := map[string]types.Object{}
	for _, o := range m.decls {
		if name, ok := exportedName(o); ok {
			exported[name] = o
		}
	}
	names := make([]string, 0, len(exported))
	for name := range exported {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := exported[name]
		_, allowed := orphanAllowlist[name]
		switch {
		case live[o] && allowed:
			t.Errorf("orphanAllowlist: %s has a caller now; drop its entry", name)
		case !live[o] && !allowed && (isPackageLevel(o) || live[receiver(o)]): // a dead type's methods go with it
			t.Errorf("%s: %s is exported, but no command, example, root API, benchmark or other package's test reaches it; delete it with the tests that exercise only it",
				m.fset.Position(o.Pos()), name)
		}
	}
	for name := range orphanAllowlist {
		if exported[name] == nil {
			t.Errorf("orphanAllowlist: %s names no exported declaration under internal/", name)
		}
	}
	m.checkReadme(t)
}

// goPackage is the part of `go list -json` output the test reads.
type goPackage struct {
	ImportPath, Name, Dir, Export      string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
}

// module is the type-checked module: its packages' non-test files, the
// references each non-test declaration makes, and the roots.
type module struct {
	fset    *token.FileSet
	pkgs    map[string]*goPackage     // the module's packages by import path
	plain   map[string]*types.Package // their non-test files, type-checked
	gc      types.Importer            // everything else, from export data
	files   map[string]*ast.File
	decls   []types.Object                  // the non-test package-level objects and methods
	refs    map[types.Object][]types.Object // what each of decls references
	roots   []types.Object
	methods map[string][]*types.Signature // interface methods by Id
	consts  map[types.Object][]types.Object
}

func goList(t *testing.T, args ...string) []*goPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	var pkgs []*goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(goPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// loadModule lists the module, fetches the export data of the standard
// packages its tests import besides, and type-checks every package: its
// non-test files as the package others import, its test files with them,
// and its external test package against the non-test files.
func loadModule(t *testing.T) *module {
	m := &module{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*goPackage{},
		plain:   map[string]*types.Package{},
		files:   map[string]*ast.File{},
		refs:    map[types.Object][]types.Object{},
		methods: map[string][]*types.Signature{},
		consts:  map[types.Object][]types.Object{},
	}
	export := map[string]string{}
	listed := goList(t, "./...")
	var testOnly []string
	for _, p := range listed {
		if p.Standard {
			export[p.ImportPath] = p.Export
		} else {
			m.pkgs[p.ImportPath] = p
		}
	}
	for _, p := range m.pkgs {
		for _, imp := range append(p.TestImports, p.XTestImports...) {
			if m.pkgs[imp] == nil && export[imp] == "" && imp != "C" {
				testOnly = append(testOnly, imp)
			}
		}
	}
	if len(testOnly) > 0 {
		for _, p := range goList(t, testOnly...) {
			export[p.ImportPath] = p.Export
		}
	}
	m.gc = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(export[path])
	})

	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range paths {
		p := m.pkgs[path]
		if len(p.TestGoFiles) > 0 {
			m.checkTests(t, path, path, append(append([]string(nil), p.GoFiles...), p.TestGoFiles...))
		}
		if len(p.XTestGoFiles) > 0 {
			m.checkTests(t, path+"_test", path, p.XTestGoFiles)
		}
	}
	if err := m.collectInterfaces(); err != nil {
		t.Fatal(err)
	}
	return m
}

// Import returns the module package at path, type-checked from its non-test
// files, or a standard package from its export data.
func (m *module) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.gc.Import(path)
	}
	if pkg := m.plain[path]; pkg != nil {
		return pkg, nil
	}
	files, err := m.parse(p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	m.plain[path] = pkg
	m.index(pkg, files, info)
	return pkg, nil
}

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		name = filepath.Join(dir, name)
		f := m.files[name]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			m.files[name] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// index records the declarations of a package's non-test files, what each
// references, and the references of its variable initializers and init
// functions as roots. Every declaration of a package main is a root, and so
// is the root package's exported API.
func (m *module) index(pkg *types.Package, files []*ast.File, info *types.Info) {
	main, api := pkg.Name() == "main", pkg.Path() == "fidelity"
	declare := func(o types.Object, refs []types.Object) {
		if o == nil || o.Name() == "_" {
			return
		}
		m.decls = append(m.decls, o)
		m.refs[o] = refs
		if main || api && o.Exported() && (isPackageLevel(o) || receiver(o).Exported()) {
			m.roots = append(m.roots, o)
		}
		if c, ok := o.(*types.Const); ok {
			if named, ok := c.Type().(*types.Named); ok {
				m.consts[named.Obj()] = append(m.consts[named.Obj()], c)
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					m.roots = append(m.roots, uses(info, d)...)
					continue
				}
				declare(info.Defs[d.Name], uses(info, d))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(info.Defs[s.Name], uses(info, s))
					case *ast.ValueSpec:
						refs := uses(info, s)
						if d.Tok == token.VAR {
							for _, v := range s.Values {
								m.roots = append(m.roots, uses(info, v)...)
							}
							refs = nil
							if s.Type != nil {
								refs = uses(info, s.Type)
							}
						}
						for _, name := range s.Names {
							declare(info.Defs[name], refs)
						}
					}
				}
			}
		}
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			m.addInterface(iface)
		}
	}
}

// uses returns the objects the identifiers under n refer to, generic ones as
// their origin.
func uses(info *types.Info, n ast.Node) []types.Object {
	var refs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := info.Uses[id]; o != nil {
				refs = append(refs, origin(o))
			}
		}
		return true
	})
	return refs
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func isPackageLevel(o types.Object) bool {
	return o.Pkg() != nil && o.Parent() == o.Pkg().Scope()
}

// receiver returns the type name a method is declared on.
func receiver(o types.Object) *types.TypeName {
	t := o.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// checkTests type-checks one package's test files (with its non-test files
// when they are one package) and takes every identifier they use from a
// module package other than under as a root.
func (m *module) checkTests(t *testing.T, path, under string, names []string) {
	t.Helper()
	p := m.pkgs[under]
	files, err := m.parse(p.Dir, names)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info); err != nil {
		t.Fatalf("type-checking the tests of %s: %v", under, err)
	}
	for _, f := range files {
		if !strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, o := range uses(info, f) {
			if o.Pkg() != nil && o.Pkg().Path() != under && m.pkgs[o.Pkg().Path()] != nil {
				m.roots = append(m.roots, o)
			}
		}
	}
}

// unnamedInterfaces are the interfaces the standard library asserts to
// without declaring them: errors.Is, As and Unwrap call these methods.
const unnamedInterfaces = `package std

type (
	unwrap     interface{ Unwrap() error }
	unwrapJoin interface{ Unwrap() []error }
	is         interface{ Is(error) bool }
	as         interface{ As(any) bool }
)`

// collectInterfaces adds the interfaces the standard packages declare, such
// as fmt.Stringer and json.Marshaler, and unnamedInterfaces to those the
// module names.
func (m *module) collectInterfaces() error {
	f, err := parser.ParseFile(m.fset, "std.go", unnamedInterfaces, 0)
	if err != nil {
		return err
	}
	std, err := new(types.Config).Check("std", m.fset, []*ast.File{f}, nil)
	if err != nil {
		return err
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					m.addInterface(iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	visit(std)
	for _, pkg := range m.plain {
		for _, imp := range pkg.Imports() {
			if m.pkgs[imp.Path()] == nil {
				visit(imp)
			}
		}
	}
	return nil
}

func (m *module) addInterface(iface *types.Interface) {
	for i := range iface.NumMethods() {
		f := iface.Method(i)
		m.methods[f.Id()] = append(m.methods[f.Id()], f.Type().(*types.Signature))
	}
}

// implements reports whether a method has the name and signature of some
// interface's method, so that a call through that interface may reach it.
func (m *module) implements(f *types.Func) bool {
	for _, sig := range m.methods[f.Id()] {
		if types.Identical(sig, f.Type()) {
			return true
		}
	}
	return false
}

// live returns the declarations the roots reach.
func (m *module) live() map[types.Object]bool {
	live := map[types.Object]bool{}
	queue := append([]types.Object(nil), m.roots...)
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[o] {
			continue
		}
		live[o] = true
		queue = append(queue, m.refs[o]...)
		queue = append(queue, m.consts[o]...)
		if tn, ok := o.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := range named.NumMethods() {
					if f := named.Method(i); m.implements(f) {
						queue = append(queue, f)
					}
				}
			}
		}
	}
	return live
}

// exportedName names an exported declaration under internal/ as
// pkg.Name or pkg.Type.Method.
func exportedName(o types.Object) (string, bool) {
	pkg, ok := strings.CutPrefix(o.Pkg().Path(), "fidelity/internal/")
	if !ok || !o.Exported() {
		return "", false
	}
	if isPackageLevel(o) {
		return pkg + "." + o.Name(), true
	}
	return pkg + "." + receiver(o).Name() + "." + o.Name(), true
}

// checkReadme holds internal/README.md's package rows to the imports: each
// row names a package under internal/, and every package its last column
// names as a product caller ("root" for the root package) imports it from a
// non-test file.
func (m *module) checkReadme(t *testing.T) {
	t.Helper()
	readme, err := os.ReadFile("internal/README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `([\\w/]+)` \\|.*\\| ([^|\\n]*) \\|$").FindAllStringSubmatch(string(readme), -1)
	if len(rows) < 10 {
		t.Fatalf("found %d package rows in internal/README.md; the table format changed", len(rows))
	}
	root, span := regexp.MustCompile(`(^|[^\w.])root\b`), regexp.MustCompile("`([\\w/]+)")
	for _, row := range rows {
		pkg := "fidelity/internal/" + row[1]
		if m.pkgs[pkg] == nil {
			t.Errorf("internal/README.md: the row of %s names no package", row[1])
			continue
		}
		var callers []string
		if root.MatchString(row[2]) {
			callers = append(callers, "fidelity")
		}
		for _, name := range span.FindAllStringSubmatch(row[2], -1) {
			for _, path := range []string{"fidelity/" + name[1], "fidelity/internal/" + name[1]} {
				if m.pkgs[path] != nil && path != pkg {
					callers = append(callers, path)
				}
			}
		}
		if len(callers) == 0 {
			t.Errorf("internal/README.md: the row of %s names no product caller", row[1])
		}
		for _, caller := range callers {
			if !slices.Contains(m.pkgs[caller].Imports, pkg) {
				t.Errorf("internal/README.md: the row of %s names %s as a product caller, but no non-test file of %s imports it", row[1], caller, caller)
			}
		}
	}
}
