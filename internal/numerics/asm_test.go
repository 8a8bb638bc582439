package numerics

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLaneRegistryComplete keeps the lane table (lanes_test.go) whole, so
// that no body lands without the checks its row derives: every TEXT routine
// but the two CPU probes is the body of exactly one (dispatcher, instruction
// set) cell, named for its set — the rows of one dispatcher's results share
// its cells — and every body a row names is a TEXT routine;
// every routine halfrow_amd64.go declares has a stub in halfrow_noasm.go;
// every row, sweep and fuzz target names a function.
func TestLaneRegistryComplete(t *testing.T) {
	probes := map[string]bool{"cpuHasAVX2": true, "cpuHasAVX512": true}
	bodies, routines, funcs := map[string]map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, p := range primitives {
		for _, body := range []string{p.body, p.body512} {
			if body != "" {
				if bodies[body] == nil {
					bodies[body] = map[string]bool{}
				}
				bodies[body][p.dispatcher()] = true
			}
		}
		if !strings.HasSuffix(p.body, "AVX2") || p.body512 != "" && !strings.HasSuffix(p.body512, "AVX512") {
			t.Errorf("row %s: bodies %s and %q, each not named for its instruction set", p.name, p.body, p.body512)
		}
	}
	files, _ := filepath.Glob("*_amd64.s")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`).FindAllSubmatch(src, -1) {
			if name := string(m[1]); !probes[name] && len(bodies[name]) != 1 {
				t.Errorf("%s: TEXT ·%s is the body of %d cells, want 1", file, name, len(bodies[name]))
			}
			routines[string(m[1])] = true
		}
	}
	stubs := funcNames(t, "halfrow_noasm.go")
	for name := range funcNames(t, "halfrow_amd64.go") {
		if !routines[name] || !stubs[name] && !probes[name] {
			t.Errorf("halfrow_amd64.go declares %s: no TEXT routine, or no stub in halfrow_noasm.go", name)
		}
	}
	gofiles, _ := filepath.Glob("*.go")
	for _, file := range gofiles {
		for name := range funcNames(t, file) {
			funcs[name] = true
		}
	}
	for _, p := range primitives {
		names := []string{p.dispatcher()}
		for _, s := range p.sweeps {
			names = append(names, s.test)
		}
		if p.fuzz != "" {
			names = append(names, p.fuzz)
		}
		for _, name := range names {
			if !funcs[name] {
				t.Errorf("row %s names %s, which is no function of the package", p.name, name)
			}
		}
		for _, body := range []string{p.body, p.body512} {
			if body != "" && !routines[body] {
				t.Errorf("row %s names body %q, which is no TEXT routine", p.name, body)
			}
		}
	}
}

// funcNames returns the functions file declares, a method as Type.Name.
func funcNames(t *testing.T, file string) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			name := fd.Name.Name
			if fd.Recv != nil {
				if id, ok := fd.Recv.List[0].Type.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			names[name] = true
		}
	}
	return names
}

// TestAsmIsVEXOnly scans every *_amd64.s of the package for the two mistakes
// that cost a microsecond a call and break nothing: a legacy-SSE instruction
// (any mnemonic not starting with V) on an X, Y or Z register, 0–31, which
// makes the CPU save the dirty upper halves at the next VEX instruction, and a
// RET out of a routine that used vector registers without a VZEROUPPER just
// before it, which leaves them dirty for the Go code that follows. The opmask
// instructions (KORW, KORTESTW, …) name no vector register and pass. A
// macro that takes its registers as parameters (MAC, DIFF8, the column lists
// COLS and ZCOLS) is held to the same rule where it is used: no vector
// register may be passed to a parameter that a non-VEX instruction of its
// body operates on. It also pins the converter's imm8: $4 would take the
// rounding mode from MXCSR, which no test can set and nothing promises.
func TestAsmIsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) < 3 {
		t.Fatalf("found %v (%v): halfrow_amd64.s, floatrow_amd64.s and exprow_amd64.s at least", files, err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range asmProblems(file, string(src)) {
			t.Error(p)
		}
	}
}

// TestAsmIsVEXOnlyCatchesZMM plants the routines the scan must reject: one
// whose only vector register is a ZMM one named through two macros, and one
// that moves an upper-bank XMM register with a legacy instruction.
func TestAsmIsVEXOnlyCatchesZMM(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"#define LOAD(off, R) VMOVUPS off(DI), R\n#define ROWS(M) M(0, Z8)\n" +
			"TEXT ·zmmOnly(SB), NOSPLIT, $0-8\n\tROWS(LOAD)\n\tRET\n", "RET from ·zmmOnly(SB), NOSPLIT, $0-8 without VZEROUPPER"},
		{"#define ROWS(M) M(0, Y8)\nTEXT ·upperBank(SB), NOSPLIT, $0-8\n\tMOVQ X17, AX\n\tVZEROUPPER\n\tRET\n",
			"MOVQ on a vector register is not VEX-encoded"},
	} {
		if ps := asmProblems("planted.s", c.src); len(ps) != 1 || !strings.Contains(ps[0], c.want) {
			t.Errorf("planted routine %q: the scan reports %q, want one problem: %s", c.src, ps, c.want)
		}
	}
}

// asmProblems returns what is wrong with assembly file src by the rules of
// TestAsmIsVEXOnly.
func asmProblems(file, src string) []string {
	var problems []string
	report := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	vecReg := regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)
	macros := map[string]bool{} // names of #define'd macros that use vector registers
	// params holds each macro's parameter names; legacy the positions of those
	// a non-VEX instruction of its body names.
	params, legacy := map[string][]string{}, map[string]map[int]bool{}
	var routine, prev, macro string
	vector := false // the current routine has used a vector register
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		continued := strings.HasSuffix(strings.TrimSpace(line), `\`)
		line = strings.TrimSuffix(strings.TrimSpace(line), `\`)
		if name, ok := strings.CutPrefix(line, "#define "); ok {
			macro = strings.FieldsFunc(name, func(r rune) bool { return r == '(' || r == ' ' })[0]
			line = strings.TrimPrefix(name, macro)
			if i := strings.Index(line, ")"); strings.HasPrefix(line, "(") && i >= 0 {
				params[macro] = macroArgs(line[:i+1])
				line = line[i+1:]
			}
		}
		for _, ins := range strings.Split(line, ";") {
			f := strings.Fields(ins)
			if len(f) == 0 || strings.HasPrefix(f[0], "#") || strings.HasSuffix(f[0], ":") {
				continue
			}
			op, args := f[0], strings.Join(f[1:], " ")
			switch {
			case op == "TEXT":
				routine, prev, vector = args, "", false
				continue
			case op == "DATA" || op == "GLOBL":
				continue
			}
			// A macro's own instructions were scanned where it is defined; its
			// arguments may name the registers it works on.
			name := strings.SplitN(op, "(", 2)[0]
			isMacro := name != op
			usesVec := vecReg.MatchString(args) || macros[name] || strings.HasPrefix(op, "V")
			if usesVec && macro != "" {
				macros[macro] = true
			}
			if isMacro {
				for j, arg := range macroArgs(strings.TrimSpace(ins)[len(name):]) {
					if legacy[name][j] && vecReg.MatchString(arg) {
						report("%s:%d: %s passes %s to a non-VEX instruction", file, ln+1, name, arg)
					}
				}
			} else if macro != "" && !strings.HasPrefix(op, "V") {
				for j, p := range params[macro] {
					if regexp.MustCompile(`\b` + regexp.QuoteMeta(p) + `\b`).MatchString(args) {
						if legacy[macro] == nil {
							legacy[macro] = map[int]bool{}
						}
						legacy[macro][j] = true
					}
				}
			}
			vector = vector || usesVec
			if op == "VCVTPS2PH" && !strings.HasPrefix(args, "$0,") {
				report("%s:%d: VCVTPS2PH %s: imm8 must be $0, round to nearest even whatever MXCSR holds", file, ln+1, args)
			}
			if vecReg.MatchString(args) && !strings.HasPrefix(op, "V") && !isMacro {
				report("%s:%d: %s on a vector register is not VEX-encoded", file, ln+1, op)
			}
			if op == "RET" && vector && prev != "VZEROUPPER" {
				report("%s:%d: RET from %s without VZEROUPPER before it", file, ln+1, routine)
			}
			prev = op
		}
		if !continued {
			macro = ""
		}
	}
	if len(macros) == 0 || routine == "" {
		report("%s: found %d vector macros, last routine %q: has the file's layout changed?", file, len(macros), routine)
	}
	return problems
}

// macroArgs splits the parenthesised argument list that opens s, "(a, b)", into
// its trimmed arguments.
func macroArgs(s string) []string {
	i := strings.Index(s, ")")
	if !strings.HasPrefix(s, "(") || i < 0 {
		return nil
	}
	args := strings.Split(s[1:i], ",")
	for j := range args {
		args[j] = strings.TrimSpace(args[j])
	}
	return args
}
