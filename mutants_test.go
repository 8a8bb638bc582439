package fidelity

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// mutant is one row of testdata/mutants.json: a recorded fault in the
// program that its tests once killed. Replacing Old, which occurs exactly
// once in File, by New must make `go test -run Run Pkg` fail. `make mutants`
// (the mutants build tag) checks that, where the mutated code runs (a
// *_amd64.s row names the instruction set its tests need, ISA: "avx2",
// "avx512" or "avx512fp16", and so does a row of Go code that its tests
// reach only through such a body); TestMutantRows checks only that every row
// still applies.
type mutant struct {
	Name string `json:"name"`
	File string `json:"file"`
	ISA  string `json:"isa,omitempty"`
	Old  string `json:"old"`
	New  string `json:"new"`
	Pkg  string `json:"pkg"`
	Run  string `json:"run"`
}

func loadMutants(t *testing.T) []mutant {
	t.Helper()
	b, err := os.ReadFile("testdata/mutants.json")
	if err != nil {
		t.Fatal(err)
	}
	var ms []mutant
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ms); err != nil {
		t.Fatal(err)
	}
	return ms
}

// apply returns m's file with the mutant in it.
func (m mutant) apply() ([]byte, error) {
	src, err := os.ReadFile(m.File)
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(m.Old)); n != 1 {
		return nil, fmt.Errorf("%s: old snippet occurs %d times in %s, want 1", m.Name, n, m.File)
	}
	return bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), nil
}

// TestMutantRows holds every recorded mutant to the tree: its old snippet
// occurs exactly once in its file, so a change that rewrites mutated code
// must update or retire the row; its -run pattern selects a test of its
// package, since one that selects nothing passes and no mutant would die; and
// a row that mutates a *_amd64.s file names an instruction set, and any
// other names a known one or none.
func TestMutantRows(t *testing.T) {
	ms := loadMutants(t)
	if len(ms) == 0 {
		t.Fatal("testdata/mutants.json has no rows")
	}
	names := map[string]bool{}
	tests := map[string]map[string]bool{}
	for _, m := range ms {
		if m.Name == "" || names[m.Name] {
			t.Errorf("mutant %q: names must be set and unique", m.Name)
		}
		names[m.Name] = true
		if m.Old == m.New {
			t.Errorf("%s: new equals old", m.Name)
		}
		known := m.ISA == "avx2" || m.ISA == "avx512" || m.ISA == "avx512fp16"
		if !known && (m.ISA != "" || strings.HasSuffix(m.File, "_amd64.s")) {
			t.Errorf("%s: isa %q for %s, want avx2, avx512 or avx512fp16 for a *_amd64.s file, one of those or none elsewhere",
				m.Name, m.ISA, m.File)
		}
		if _, err := m.apply(); err != nil {
			t.Error(err)
		}
		if tests[m.Pkg] == nil {
			tests[m.Pkg], _ = testFiles(t, m.Pkg)
		}
		if first, _, _ := strings.Cut(m.Run, "/"); !matchesAny(first, tests[m.Pkg]) {
			t.Errorf("%s: -run %q selects no test in %s", m.Name, m.Run, m.Pkg)
		}
	}
}
