package main

import (
	"os"
	"path/filepath"
	"reflect"
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
