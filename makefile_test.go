package fidelity

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMakefileSelectsTests holds the Makefile's test selections to the test
// files, since `go test -run` that selects nothing exits 0 with "no tests to
// run": a rename would silently empty a target. Every alternative of a -run
// pattern's first element (variables such as FLAKE_TESTS expanded) must
// select a test or fuzz function in the packages its command names, and
// every package some; every alternative of a further element, which selects
// subtests, must match a string literal of those test files — what the
// subtests' names are built from. Every FUZZ_TARGETS entry must name a fuzz
// function of its package.
func TestMakefileSelectsTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^(\w+) := (.*)$`).FindAllStringSubmatch(string(mk), -1) {
		vars[m[1]] = m[2]
	}
	expand := func(s string) string {
		s = regexp.MustCompile(`\$\((\w+)\)`).ReplaceAllStringFunc(s, func(v string) string { return vars[v[2:len(v)-1]] })
		return strings.ReplaceAll(s, "$$", "$")
	}

	for _, target := range strings.Fields(vars["FUZZ_TARGETS"]) {
		pkg, name, _ := strings.Cut(target, ":")
		if funcs, _ := testFiles(t, "./internal/"+pkg); !funcs[name] || !strings.HasPrefix(name, "Fuzz") {
			t.Errorf("FUZZ_TARGETS: %s names no fuzz function of internal/%s", name, pkg)
		}
	}

	runs := regexp.MustCompile(`(?m)^\t.*\btest\b.* -run '([^']*)'(.*)$`).FindAllStringSubmatch(string(mk), -1)
	for _, m := range runs {
		pattern := expand(m[1])
		if pattern == "^$" { // benchmarks and fuzzers only
			continue
		}
		funcs, literals := map[string]bool{}, map[string]bool{}
		elems := strings.Split(pattern, "/")
		for _, pkg := range strings.Fields(m[2]) {
			if pkg != "." && !strings.HasPrefix(pkg, "./") {
				continue
			}
			f, l := testFiles(t, pkg)
			if !matchesAny(elems[0], f) {
				t.Errorf("Makefile: -run %q selects no test in %s", pattern, pkg)
			}
			for k := range f {
				funcs[k] = true
			}
			for k := range l {
				literals[k] = true
			}
		}
		for i, elem := range elems {
			for _, alt := range alternatives(elem) {
				if i == 0 && !matchesAny(alt, funcs) || i > 0 && !regexp.MustCompile(alt).MatchString("") && !matchesAny(alt, literals) {
					t.Errorf("Makefile: -run %q: %q selects nothing", pattern, alt)
				}
			}
		}
	}
	if len(runs) < 5 {
		t.Fatalf("found %d -run patterns in the Makefile; the recipe format changed", len(runs))
	}
}

// alternatives splits a -run element into its alternatives, each anchored
// as the whole was when it is of the form ^(a|b)$.
func alternatives(elem string) []string {
	inner, anchored := strings.CutPrefix(elem, "^(")
	if inner, ok := strings.CutSuffix(inner, ")$"); anchored && ok {
		var alts []string
		for _, a := range strings.Split(inner, "|") {
			alts = append(alts, "^(?:"+a+")$")
		}
		return alts
	}
	return strings.Split(elem, "|")
}

func matchesAny(pattern string, set map[string]bool) bool {
	re := regexp.MustCompile(pattern)
	for s := range set {
		if re.MatchString(s) {
			return true
		}
	}
	return false
}

// testFiles returns the test and fuzz functions and the string literals of
// the test files of the package at dir, and of those below it when dir ends
// in "/...".
func testFiles(t *testing.T, dir string) (funcs, literals map[string]bool) {
	t.Helper()
	funcs, literals = map[string]bool{}, map[string]bool{}
	root, all := strings.CutSuffix(strings.TrimSuffix(dir, "/"), "/...")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (!all || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				funcs[fn.Name.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					literals[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, literals
}
