package numerics

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLaneRegistryComplete keeps the lane table (lanes_test.go) whole, so
// that no body lands without the checks its row derives: every TEXT routine
// but the three CPU probes is the body of exactly one (dispatcher, instruction
// set) cell, named for its set — the rows of one dispatcher's results share
// its cells — and every body a row names is a TEXT routine;
// every routine halfrow_amd64.go declares has a stub in halfrow_noasm.go;
// every row, sweep and fuzz target names a function.
func TestLaneRegistryComplete(t *testing.T) {
	probes := map[string]bool{"cpuHasAVX2": true, "cpuHasAVX512": true, "cpuHasAVX512FP16": true}
	bodies, routines, funcs := map[string]map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, p := range primitives {
		for _, body := range []string{p.body, p.body512, p.bodyFP16} {
			if body != "" {
				if bodies[body] == nil {
					bodies[body] = map[string]bool{}
				}
				bodies[body][p.dispatcher()] = true
			}
		}
		if !strings.HasSuffix(p.body, "AVX2") || p.body512 != "" && !strings.HasSuffix(p.body512, "AVX512") ||
			p.bodyFP16 != "" && !strings.HasSuffix(p.bodyFP16, "AVX512FP16") {
			t.Errorf("row %s: bodies %s, %q and %q, each not named for its instruction set", p.name, p.body, p.body512, p.bodyFP16)
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
		for _, body := range []string{p.body, p.body512, p.bodyFP16} {
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
// before it, which leaves them dirty for the Go code that follows. A BYTE
// run is an encoded vector instruction (TestVMULPHEncodings) and counts as a
// vector use. The opmask instructions (KORW, KORTESTW, …) name no vector
// register and pass. A
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

// TestAsmIsVEXOnlyCatchesBYTE plants a routine whose only vector instruction
// is a BYTE-encoded one, named through a macro, and returns without
// VZEROUPPER: the scan must count the BYTE run as a vector use.
func TestAsmIsVEXOnlyCatchesBYTE(t *testing.T) {
	src := "#define MUL BYTE $0x62; BYTE $0xf5; BYTE $0x44; BYTE $0x28; BYTE $0x59; BYTE $0x06 // VMULPH (SI), Y7, Y0\n" +
		"TEXT ·byteOnly(SB), NOSPLIT, $0-8\n\tMUL\n\tRET\n"
	want := "RET from ·byteOnly(SB), NOSPLIT, $0-8 without VZEROUPPER"
	if ps := asmProblems("planted.s", src); len(ps) != 1 || !strings.Contains(ps[0], want) {
		t.Errorf("planted routine %q: the scan reports %q, want one problem: %s", src, ps, want)
	}
}

// TestVMULPHEncodings holds every BYTE run of the package's assembly to the
// instruction its comment names, the one form Go's assembler cannot spell:
// VMULPH in Go operand order, EVEX.256.NP.MAP5.W0 59 /r (src2 a Y register
// or off(base), src1 and dst Y registers), re-encoded by evexVMULPH256 —
// itself first held to encodings an independent assembler gave.
func TestVMULPHEncodings(t *testing.T) {
	for ins, want := range map[string][]byte{
		"VMULPH Y3, Y2, Y1":         {0x62, 0xf5, 0x6c, 0x28, 0x59, 0xcb},
		"VMULPH Y17, Y25, Y9":       {0x62, 0x35, 0x34, 0x20, 0x59, 0xc9},
		"VMULPH 64(SP), Y7, Y0":     {0x62, 0xf5, 0x44, 0x28, 0x59, 0x44, 0x24, 0x02},
		"VMULPH (BP), Y7, Y0":       {0x62, 0xf5, 0x44, 0x28, 0x59, 0x45, 0x00},
		"VMULPH 40(R13), Y20, Y31":  {0x62, 0x45, 0x5c, 0x20, 0x59, 0xbd, 0x28, 0x00, 0x00, 0x00},
		"VMULPH -4096(R12), Y1, Y2": {0x62, 0xd5, 0x74, 0x28, 0x59, 0x54, 0x24, 0x80},
		"VMULPH 32(SI), Y7, Y0":     {0x62, 0xf5, 0x44, 0x28, 0x59, 0x46, 0x01},
		"VMULPH (SI), Y7, Y0":       {0x62, 0xf5, 0x44, 0x28, 0x59, 0x06},
	} {
		if got, err := encodeComment(ins); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encoder gives % x (%v), want % x", ins, got, err, want)
		}
	}
	files, _ := filepath.Glob("*_amd64.s")
	runs := 0
	byteRe := regexp.MustCompile(`BYTE\s+\$0x([0-9a-fA-F]{1,2})`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(src), "\n") {
			code, comment, _ := strings.Cut(line, "//")
			ms := byteRe.FindAllStringSubmatch(code, -1)
			if len(ms) == 0 {
				continue
			}
			runs++
			var got []byte
			for _, m := range ms {
				b, _ := strconv.ParseUint(m[1], 16, 8)
				got = append(got, byte(b))
			}
			want, err := encodeComment(strings.TrimSpace(comment))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s:%d: BYTE run % x, its comment %q encodes as % x (%v)", file, ln+1, got, strings.TrimSpace(comment), want, err)
			}
		}
	}
	if runs == 0 {
		t.Error("found no BYTE run: has the FP16 panel body's layout changed?")
	}
}

// encodeComment encodes the instruction a BYTE run's comment names: "VMULPH
// src2, src1, dst" in Go operand order.
func encodeComment(ins string) ([]byte, error) {
	op, rest, _ := strings.Cut(ins, " ")
	args := strings.Split(rest, ",")
	if op != "VMULPH" || len(args) != 3 {
		return nil, fmt.Errorf("%q is not VMULPH src2, src1, dst", ins)
	}
	for i := range args {
		args[i] = strings.TrimSpace(args[i])
	}
	return evexVMULPH256(args[0], args[1], args[2])
}

// evexVMULPH256 encodes VMULPH dst, src1, src2/m256 (Intel order) from Go
// operands: EVEX (62, P0 = R̄ X̄ B̄ R̄' 0 101 for MAP5, P1 = W0 v̄v̄v̄v̄ 1 00 for
// NP, P2 = z0 L'L=01 b0 V̄' aaa=000), opcode 59, then ModRM with a SIB byte
// for an SP or R12 base and the shortest displacement, disp8 scaled by 32
// (a full 256-bit operand) where it divides.
func evexVMULPH256(src2, src1, dst string) ([]byte, error) {
	ymm := func(s string) (int, bool) {
		n, err := strconv.Atoi(strings.TrimPrefix(s, "Y"))
		return n, strings.HasPrefix(s, "Y") && err == nil && n >= 0 && n < 32
	}
	d, okd := ymm(dst)
	v, okv := ymm(src1)
	if !okd || !okv {
		return nil, fmt.Errorf("src1 %q and dst %q must be Y0–Y31", src1, dst)
	}
	bit := func(n, i int) byte { return byte(n>>i) & 1 }
	p0 := (1-bit(d, 3))<<7 | (1-bit(d, 4))<<4 | 0b101
	p1 := byte(^v&15)<<3 | 1<<2
	p2 := byte(0b01)<<5 | (1-bit(v, 4))<<3
	var modrm []byte
	if r, ok := ymm(src2); ok {
		p0 |= (1-bit(r, 4))<<6 | (1-bit(r, 3))<<5
		modrm = []byte{0xc0 | byte(d&7)<<3 | byte(r&7)}
	} else {
		disp, base := 0, src2
		if i := strings.Index(src2, "("); i > 0 {
			n, err := strconv.Atoi(src2[:i])
			if err != nil {
				return nil, fmt.Errorf("displacement of %q: %v", src2, err)
			}
			disp, base = n, src2[i:]
		}
		b := map[string]int{"(AX)": 0, "(CX)": 1, "(DX)": 2, "(BX)": 3, "(SP)": 4, "(BP)": 5, "(SI)": 6, "(DI)": 7,
			"(R8)": 8, "(R9)": 9, "(R10)": 10, "(R11)": 11, "(R12)": 12, "(R13)": 13, "(R14)": 14, "(R15)": 15}
		bn, ok := b[base]
		if !ok {
			return nil, fmt.Errorf("%q is no Y register and no off(base) of a general register", src2)
		}
		p0 |= 1<<6 | (1-bit(bn, 3))<<5
		mod, tail := byte(0b10), binary.LittleEndian.AppendUint32(nil, uint32(int32(disp)))
		switch {
		case disp == 0 && bn&7 != 5:
			mod, tail = 0b00, nil
		case disp%32 == 0 && disp/32 >= -128 && disp/32 <= 127:
			mod, tail = 0b01, []byte{byte(int8(disp / 32))}
		}
		modrm = []byte{mod<<6 | byte(d&7)<<3 | byte(bn&7)}
		if bn&7 == 4 {
			modrm = append(modrm, 0x24)
		}
		modrm = append(modrm, tail...)
	}
	return append([]byte{0x62, p0, p1, p2, 0x59}, modrm...), nil
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
			usesVec := vecReg.MatchString(args) || macros[name] || strings.HasPrefix(op, "V") || op == "BYTE"
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
