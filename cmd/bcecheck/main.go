// Command bcecheck fails when the compiler leaves a bounds check inside an
// innermost loop of the kernel hot paths: internal/nn/kernels.go, the row
// primitives of internal/numerics/halfrow.go and floatrow.go, the softmax's
// exponential row in internal/numerics/exprow.go, the row epilogues (the
// rectifier rows of internal/nn/activation.go, the residual add and the
// batch-norm rows of internal/nn/block.go), the pooling windows of
// internal/nn/pool.go and the replay engine's diff scans and glue regions in
// internal/nn/region.go (glueRegion's union of input boxes, box.runs' walk
// over a region's runs; the residual add is also what a residual glue sweep
// runs per run), and the cycle-level reference's lean runner in
// internal/rtlsim/engine.go (the MAC-cycle row loop, the column gather of
// whole-row rectangles). Their headers claim the per-element loops are
// bounds-check free; this keeps the claim true.
//
// It builds the three packages with -gcflags=-d=ssa/check_bce, which reports
// every check the compiler could not prove away as "file:line:col: Found
// IsInBounds" (or IsSliceInBounds), and compares the positions with the
// innermost for-statements of those files. Checks outside a loop, or in a
// loop that contains another loop, are per-row set-up and are allowed.
//
//	go run ./cmd/bcecheck        (from the module root; `make bce`)
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"strconv"
)

// hotFiles are the files whose innermost loops must be check-free, with the
// functions exempt in each. In internal/numerics the exempt functions are
// exactly the lane dispatchers that loop once per chunk the lanes hand back
// to their ...Go loop (DESIGN.md §7.1); TestNumericsExemptions derives that
// set from the source. Elsewhere: boxify and diffBox loop once per tensor
// row, slicing it out for numerics.DiffEnds; matmulTile loops once per
// output row of the whole product over mulAddPanel and scaleSaturate,
// denseTile once per input row over mulAddPanel, numerics.AddRow (the bias)
// and SaturateInto, and convTile once per output pixel of its rectangle over
// one numerics.HalfMulAddVecSaturate (FP16 depthwise) or convPixel, AddRow
// and SaturateInto; maxPoolRegion once per
// window cell over numerics.MaxRow; concatSweep once per input vector of a
// position, for one copy; InitRandom fills a layer's parameters once,
// through the tensor's accessors. In the cycle-level engine, step and
// macCycle are the per-MAC path, which runs the fault cycle alone and indexes
// registers by a possibly corrupted counter; drain runs one write-back cycle
// per iteration; rows and runs loop once per position and per run of a
// column, slicing operands out for one HalfMulAddPanel call — their
// per-element loops are gather and advance's MAC-cycle row loop, which are
// checked.
var hotFiles = map[string]map[string]bool{
	"internal/nn/kernels.go":        {"matmulTile": true, "denseTile": true, "convTile": true},
	"internal/nn/activation.go":     {},
	"internal/nn/block.go":          {"InitRandom": true, "concatSweep": true},
	"internal/nn/pool.go":           {"maxPoolRegion": true},
	"internal/nn/region.go":         {"boxify": true, "diffBox": true},
	"internal/numerics/exprow.go":   {"ExpRow": true},
	"internal/numerics/floatrow.go": {},
	"internal/numerics/halfrow.go": {
		"HalfMulAddPanel": true, "HalfMulAddPanelRun": true,
		"HalfMulAddRow": true, "halfMulAddVec": true, "HalfDot": true, "halfRoundInto": true,
	},
	"internal/rtlsim/engine.go": {
		"step": true, "macCycle": true, "drain": true, "rows": true, "runs": true,
	},
}

var hotPackages = []string{"./internal/nn", "./internal/numerics", "./internal/rtlsim"}

// span is the line range of one innermost loop.
type span struct {
	fn         string
	start, end int
}

// innermostLoops returns the for-statements of file that contain no other
// for-statement, skipping the exempt functions.
func innermostLoops(file string, exempt map[string]bool) ([]span, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		return nil, err
	}
	var spans []span
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || exempt[fd.Name.Name] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			nested := false
			ast.Inspect(body, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					nested = true
				}
				return !nested
			})
			if !nested {
				spans = append(spans, span{fd.Name.Name, fset.Position(n.Pos()).Line, fset.Position(n.End()).Line})
			}
			return true
		})
	}
	return spans, nil
}

var found = regexp.MustCompile(`(?m)^(?:\./)?([^\s:]+\.go):(\d+):\d+: Found (Is\w*InBounds)`)

func run() error {
	// The flag applies to the named packages only, and the build cache
	// replays the compiler's diagnostics, so a repeat run is instant.
	args := append([]string{"build", "-gcflags=-d=ssa/check_bce"}, hotPackages...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go %v: %v\n%s", args, err, out)
	}
	loops := map[string][]span{}
	for file, exempt := range hotFiles {
		if loops[file], err = innermostLoops(file, exempt); err != nil {
			return err
		}
		if len(loops[file]) == 0 {
			return fmt.Errorf("%s: no loops found — has the file moved?", file)
		}
	}
	matches := found.FindAllSubmatch(out, -1)
	if len(matches) == 0 {
		return fmt.Errorf("the compiler reported no bounds checks at all — has -d=ssa/check_bce changed?\n%s", bytes.TrimSpace(out))
	}
	bad := 0
	for _, m := range matches {
		file := string(m[1])
		line, _ := strconv.Atoi(string(m[2]))
		for _, s := range loops[file] {
			if line >= s.start && line <= s.end {
				fmt.Fprintf(os.Stderr, "%s:%d: %s inside an innermost loop of %s (lines %d–%d)\n", file, line, m[3], s.fn, s.start, s.end)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d bounds check(s) in kernel inner loops", bad)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bcecheck:", err)
		os.Exit(1)
	}
	fmt.Println("bcecheck: kernel inner loops are bounds-check free")
}
