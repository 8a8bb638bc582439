package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestInnermostLoops(t *testing.T) {
	src := `package p

func kernel(a, b [][]float32) {
	for i := range a { // outer: not innermost
		row := a[i]
		for j := range row { // innermost
			row[j]++
		}
		for j := 0; j < len(b); j++ { // innermost

		}
	}
}

func exempt(a []int) {
	for range a {
	}
}
`
	file := filepath.Join(t.TempDir(), "k.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := innermostLoops(file, map[string]bool{"exempt": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []span{{"kernel", 6, 8}, {"kernel", 9, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("innermostLoops = %v, want %v", got, want)
	}
	m := found.FindSubmatch([]byte("# pkg\n./internal/nn/kernels.go:175:43: Found IsInBounds\n"))
	if m == nil || string(m[1]) != "internal/nn/kernels.go" || string(m[2]) != "175" || string(m[3]) != "IsInBounds" {
		t.Errorf("diagnostic pattern matched %q", m)
	}
}

// TestNumericsExemptions holds hotFiles' numerics exemptions to what they
// stand for: the functions of those files that call an assembly routine (a
// declaration of halfrow_amd64.go without a body) and contain a loop — the
// dispatchers that loop once per chunk the lanes hand back. A new dispatcher
// of that kind must be listed, and a listed one that stops being one must go.
func TestNumericsExemptions(t *testing.T) {
	root := filepath.Join("..", "..")
	asm := map[string]bool{}
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "internal/numerics/halfrow_amd64.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body == nil {
			asm[fd.Name.Name] = true
		}
	}
	for file, exempt := range hotFiles {
		if !strings.HasPrefix(file, "internal/numerics/") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, file), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			calls, loops := false, false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					id, ok := n.Fun.(*ast.Ident)
					calls = calls || ok && asm[id.Name]
				case *ast.ForStmt, *ast.RangeStmt:
					loops = true
				}
				return true
			})
			if calls && loops {
				want[fd.Name.Name] = true
			}
		}
		if !reflect.DeepEqual(exempt, want) {
			t.Errorf("%s: hotFiles exempts %v, the dispatchers that loop are %v", file, exempt, want)
		}
	}
}
