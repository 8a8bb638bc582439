package numerics

import (
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
// but the CPU probe is the body of exactly one row, and every row's body is a
// TEXT routine; every routine halfrow_amd64.go declares has a stub in
// halfrow_noasm.go; every row, sweep and fuzz target names a function.
func TestLaneRegistryComplete(t *testing.T) {
	const probe = "cpuHasAVX2"
	bodies, routines, funcs := map[string]int{}, map[string]bool{}, map[string]bool{}
	for _, p := range primitives {
		bodies[p.body]++
	}
	files, _ := filepath.Glob("*_amd64.s")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`).FindAllSubmatch(src, -1) {
			if name := string(m[1]); name != probe && bodies[name] != 1 {
				t.Errorf("%s: TEXT ·%s is the body of %d rows, want 1", file, name, bodies[name])
			}
			routines[string(m[1])] = true
		}
	}
	stubs := funcNames(t, "halfrow_noasm.go")
	for name := range funcNames(t, "halfrow_amd64.go") {
		if !routines[name] || !stubs[name] && name != probe {
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
		names := []string{p.name}
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
		if !routines[p.body] {
			t.Errorf("row %s names %s, which is no TEXT routine", p.name, p.body)
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
// (any mnemonic not starting with V) on an X or Y register, which makes the CPU
// save the dirty upper YMM halves at the next VEX instruction, and a RET out
// of a routine that used vector registers without a VZEROUPPER just before it,
// which leaves them dirty for the Go code that follows. A macro that takes its
// registers as parameters (MAC, DIFF8) is held to the same rule where it is
// used: no vector register may be passed to a parameter that a non-VEX
// instruction of its body operates on. It also pins the converter's imm8: $4
// would take the rounding mode from MXCSR, which no test can set and nothing
// promises.
func TestAsmIsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) < 3 {
		t.Fatalf("found %v (%v): halfrow_amd64.s, floatrow_amd64.s and exprow_amd64.s at least", files, err)
	}
	for _, file := range files {
		checkAsmIsVEXOnly(t, file)
	}
}

func checkAsmIsVEXOnly(t *testing.T, file string) {
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	vecReg := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	macros := map[string]bool{} // names of #define'd macros that use vector registers
	// params holds each macro's parameter names; legacy the positions of those
	// a non-VEX instruction of its body names.
	params, legacy := map[string][]string{}, map[string]map[int]bool{}
	var routine, prev, macro string
	vector := false // the current routine has used a vector register
	for ln, line := range strings.Split(string(src), "\n") {
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
						t.Errorf("%s:%d: %s passes %s to a non-VEX instruction", file, ln+1, name, arg)
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
				t.Errorf("%s:%d: VCVTPS2PH %s: imm8 must be $0, round to nearest even whatever MXCSR holds", file, ln+1, args)
			}
			if vecReg.MatchString(args) && !strings.HasPrefix(op, "V") && !isMacro {
				t.Errorf("%s:%d: %s on a vector register is not VEX-encoded", file, ln+1, op)
			}
			if op == "RET" && vector && prev != "VZEROUPPER" {
				t.Errorf("%s:%d: RET from %s without VZEROUPPER before it", file, ln+1, routine)
			}
			prev = op
		}
		if !continued {
			macro = ""
		}
	}
	if len(macros) == 0 || routine == "" {
		t.Fatalf("%s: found %d vector macros, last routine %q: has the file's layout changed?", file, len(macros), routine)
	}
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
