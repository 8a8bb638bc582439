//go:build mutants

package fidelity

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fidelity/internal/numerics"
)

// TestMutants runs every row of testdata/mutants.json: it writes the mutated
// file to a temporary directory, runs the row's tests with `go test -overlay`
// — the tree is never edited — and fails on a mutant that survives or does
// not build. A row that names an instruction set (one that mutates a lane
// body, a *_amd64.s file, or code reached only through one) is skipped where
// numerics.HasLanes(row.ISA) is false, off amd64 or on a CPU without that
// instruction set: no test reaches that code there. Rows run in parallel
// up to -parallel (GOMAXPROCS by default); each logs its wall time. `make
// mutants` runs it.
func TestMutants(t *testing.T) {
	dir := t.TempDir()
	for i, m := range loadMutants(t) {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			if m.ISA != "" && !numerics.HasLanes(m.ISA) {
				t.Skipf("its tests reach the mutated %s only through %s lanes, which this machine does not run", m.File, m.ISA)
			}
			src, err := m.apply()
			if err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.File)
			if err != nil {
				t.Fatal(err)
			}
			mutated := filepath.Join(dir, fmt.Sprintf("%d-%s", i, filepath.Base(m.File)))
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, fmt.Sprintf("%d-overlay.json", i))
			if err := os.WriteFile(mutated, src, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ov, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			out, err := exec.Command("go", "test", "-overlay", ov, "-count=1", "-run", m.Run, m.Pkg).CombinedOutput()
			wall := time.Since(start).Round(10 * time.Millisecond)
			switch {
			case err == nil:
				t.Errorf("survived in %v: go test -run '%s' %s passes with %s mutated", wall, m.Run, m.Pkg, m.File)
			case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
				t.Errorf("does not build, so it tests nothing:\n%s", out)
			default:
				t.Logf("killed in %v", wall)
			}
		})
	}
}
