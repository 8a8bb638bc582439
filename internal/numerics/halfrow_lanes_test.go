package numerics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// primitiveResults is what the four lane-capable primitives make of one set
// of operands.
type primitiveResults struct {
	row, vec, round []float32
	dot             float32
}

// runPrimitives applies every lane-capable primitive to the operands: acc0
// seeds the accumulators, a is the row form's activation, av the element-wise
// one, w the weights. The operands are not written.
func runPrimitives(acc0 []float32, a float32, av, w []float32) primitiveResults {
	r := primitiveResults{
		row:   append([]float32(nil), acc0...),
		vec:   append([]float32(nil), acc0...),
		round: make([]float32, len(w)),
	}
	HalfMulAddRow(r.row, a, w)
	HalfMulAddVec(r.vec, av, w)
	r.dot = HalfDot(0.25, av, w)
	halfRoundInto(r.round, w)
	return r
}

// diff names the first element on which r and o differ, bit for bit, or
// returns "".
func (r primitiveResults) diff(o primitiveResults) string {
	for _, p := range []struct {
		name string
		a, b []float32
	}{
		{"HalfMulAddRow", r.row, o.row},
		{"HalfMulAddVec", r.vec, o.vec},
		{"halfRoundInto", r.round, o.round},
		{"HalfDot", []float32{r.dot}, []float32{o.dot}},
	} {
		for i := range p.a {
			if !sameBits(p.a[i], p.b[i]) {
				return fmt.Sprintf("%s[%d] = %#08x with lanes, %#08x without",
					p.name, i, math.Float32bits(p.a[i]), math.Float32bits(p.b[i]))
			}
		}
	}
	return ""
}

// TestLanesMatchGoLoops holds the AVX2 routines to the Go loops bit for bit,
// NaN payloads included (a chunk with a NaN product is the Go loop's either
// way): on random rows of every length from 0 to 70 starting at every offset
// into their backing arrays, so the 32-byte loads are unaligned in every way,
// and with a value from each rare or edge band — an overflowing product, ±Inf,
// NaN, ±0, 2⁻²⁴, 1.5·2⁻²⁵, a float32 subnormal — planted in each lane of the
// first, a middle and the last chunk, so a bail-out that resumed an element
// early or late would show in the elements behind it.
func TestLanesMatchGoLoops(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 lanes on this machine: the Go loops are the only implementation")
	}
	defer func() { hasAVX2 = true }()
	both := func(label string, acc0 []float32, a float32, av, w []float32) {
		t.Helper()
		hasAVX2 = true
		lanes := runPrimitives(acc0, a, av, w)
		hasAVX2 = false
		if d := lanes.diff(runPrimitives(acc0, a, av, w)); d != "" {
			t.Fatalf("%s: %s (a = %v, av = %v, w = %v)", label, d, a, av, w)
		}
	}
	rng := rand.New(rand.NewSource(73))
	// draw returns n halves ~ N(0, sd²) that start off elements into their
	// backing array.
	draw := func(n, off int, sd float64) []float32 {
		s := make([]float32, off+n)[off:]
		for i := range s {
			s[i] = RoundHalf(float32(rng.NormFloat64() * sd))
		}
		return s
	}
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			// sd 0.01: a good share of the products in the half-subnormal band.
			both(fmt.Sprintf("random n=%d off=%d", n, off),
				draw(n, off, 1), float32(rng.NormFloat64()), draw(n, (off+3)%8, 1), draw(n, (off+5)%8, 0.01))
		}
	}

	// A product with 1 is exact, so the planted weight is the product; with 2
	// the largest half overflows.
	inf := float32(math.Inf(1))
	specials := []float32{65504, inf, -inf, float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		5.9604645e-08 /* 2⁻²⁴ */, 4.4703484e-08 /* 1.5·2⁻²⁵ */, -4.4703484e-08, 1e-40 /* float32 subnormal */}
	const n = 5*laneChunk + 3
	for _, a := range []float32{1, 2} {
		for _, sp := range specials {
			for _, chunk := range []int{0, 2, 4} {
				for lane := 0; lane < laneChunk; lane++ {
					acc0, av, w := draw(n, 1, 1), make([]float32, n), draw(n, 3, 0.1)
					for i := range av {
						av[i] = a
					}
					w[chunk*laneChunk+lane] = sp
					both(fmt.Sprintf("%v × %v in lane %d of chunk %d", a, sp, lane, chunk), acc0, a, av, w)
				}
			}
		}
	}
	// Two rare chunks in a row, and a rare value in the tail.
	acc0, av, w := draw(n, 0, 1), draw(n, 0, 1), draw(n, 0, 0.1)
	w[3], w[12], w[n-1] = inf, float32(math.NaN()), -inf
	both("adjacent rare chunks", acc0, 1, av, w)
}

// TestRoundLanesSmallBands sweeps the rounding the lanes share (ROUND8, through
// halfRoundInto) against RoundHalfRef where the converter and HalfFromFloat32
// could part: every float32 pattern of both signs with |p| in [2⁻²⁶, 2⁻¹³) —
// the underflow edge with the (2⁻²⁵, 2⁻²⁴) band IEEE rounds up and the model
// flushes, all of the half-subnormal band with each of its ties, the first
// normal binade — and, for each of the 2¹⁹ settings of the bits a half keeps,
// the dropped 13 at zero, just above it, just below the tie, on it, just above
// it and all ones: every tie of every binade, into the overflow edge, Inf and
// NaN, where the lanes must bail. Each block is rounded with the lanes off and
// as detected against one pass of the reference (which is most of the test's
// three seconds). The full 2³² sweep is in EXPERIMENTS.md.
func TestRoundLanesSmallBands(t *testing.T) {
	detected := hasAVX2
	defer func() { hasAVX2 = detected }()
	const block = 1 << 13
	src, dst, want := make([]float32, 2*block), make([]float32, 2*block), make([]float32, 2*block)
	check := func() {
		for i, v := range src {
			want[i] = RoundHalfRef(v)
		}
		for _, lanes := range []bool{false, detected} {
			hasAVX2 = lanes
			halfRoundInto(dst, src)
			for i, w := range want[:len(src)] {
				if !sameBits(dst[i], w) {
					t.Fatalf("halfRoundInto(%#08x) = %#08x (lanes %v), want %#08x", math.Float32bits(src[i]), math.Float32bits(dst[i]), lanes, math.Float32bits(w))
				}
			}
		}
	}
	for b := uint32(127-26) << 23; b < (127-13)<<23; b += block {
		for i := uint32(0); i < block; i++ {
			src[2*i], src[2*i+1] = math.Float32frombits(b+i), math.Float32frombits(b+i|f32Sign)
		}
		check()
	}
	lows := [...]uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff}
	src, dst = src[:len(lows)*block/4], dst[:len(lows)*block/4]
	for prefix := uint32(0); prefix < 1<<19; prefix += block / 4 {
		for i := range src {
			src[i] = math.Float32frombits((prefix+uint32(i/len(lows)))<<13 | lows[i%len(lows)])
		}
		check()
	}
}

// FuzzHalfRow holds every row primitive and the FP16 RoundInto loop to
// RoundHalfRef on arbitrary float32 bit patterns, with the lanes off and as
// detected. The seed corpus is halfRowMultipliers against itself: every band,
// both signs, every special operand, in every lane.
func FuzzHalfRow(f *testing.F) {
	ms := halfRowMultipliers()
	row := make([]byte, 0, 4*len(ms))
	for _, m := range ms {
		row = binary.LittleEndian.AppendUint32(row, math.Float32bits(m))
	}
	for i, m := range ms {
		// Rotated by one element per seed, so each value meets each lane.
		f.Add(math.Float32bits(m), append(append([]byte(nil), row[4*i:]...), row[:4*i]...))
	}
	// Where the converter alone would differ from HalfFromFloat32 or must not
	// be reached: inside (2⁻²⁵, 2⁻²⁴), on the 2⁻²⁵ tie, and on the two sides of
	// the overflow edge, as exact products with 1 in each lane of a chunk.
	for _, edge := range []uint32{0x33000001, 0x337fffff, 0x33400000, 0x33000000, f32HalfOver - 1, f32HalfOver} {
		var chunk []byte
		for lane := 0; lane < laneChunk; lane++ {
			chunk = binary.LittleEndian.AppendUint32(chunk, edge|uint32(lane&1)<<31)
		}
		f.Add(math.Float32bits(1), chunk)
	}
	detected := hasAVX2
	f.Fuzz(func(t *testing.T, abits uint32, data []byte) {
		defer func() { hasAVX2 = detected }()
		a := math.Float32frombits(abits)
		w := make([]float32, len(data)/4)
		for i := range w {
			w[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		// The element-wise activations are the weights back to front.
		av := make([]float32, len(w))
		for i := range av {
			av[i] = w[len(w)-1-i]
		}
		const acc0 = 0.25
		wantRow, wantVec, wantRound := make([]float32, len(w)), make([]float32, len(w)), make([]float32, len(w))
		var wantDot float32 = acc0
		for i, wv := range w {
			wantRow[i] = acc0 + RoundHalfRef(a*wv)
			wantVec[i] = acc0 + RoundHalfRef(av[i]*wv)
			wantRound[i] = RoundHalfRef(wv)
			wantDot += RoundHalfRef(av[i] * wv)
		}
		acc := make([]float32, len(w))
		for _, lanes := range []bool{false, detected} {
			hasAVX2 = lanes
			check := func(prim string, got, want []float32) {
				for i := range want {
					if !sameValue(got[i], want[i]) {
						t.Fatalf("%s (lanes %v): element %d = %#08x, want %#08x (a = %#08x, w = %#08x, av = %#08x)", prim, lanes, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]), abits, math.Float32bits(w[i]), math.Float32bits(av[i]))
					}
				}
			}
			fill := func() {
				for i := range acc {
					acc[i] = acc0
				}
			}
			fill()
			HalfMulAddRow(acc, a, w)
			check("HalfMulAddRow", acc, wantRow)
			fill()
			HalfMulAddVec(acc, av, w)
			check("HalfMulAddVec", acc, wantVec)
			MustCodec(FP16, 0).RoundInto(acc, w)
			check("RoundInto", acc, wantRound)
			// A NaN anywhere makes the sum NaN, so the dot compares whole.
			check("HalfDot", []float32{HalfDot(acc0, av, w)}, []float32{wantDot})
		}
	})
}

// panelRef is HalfMulAddPanel's definition through RoundHalfRef: one product,
// one rounding and one add at a time, rows of ±0 activations left out under
// skipZero.
func panelRef(acc, a, w []float32, stride int, skipZero bool) {
	for i, av := range a {
		if av == 0 && skipZero {
			continue
		}
		for c := range acc {
			acc[c] += RoundHalfRef(av * w[i*stride+c])
		}
	}
}

// checkPanel holds HalfMulAddPanel to its definition and to HalfMulAddRow
// taken row by row, with the lanes off and as detected, from accumulators
// that start at acc0. It restores hasAVX2.
func checkPanel(t *testing.T, label string, acc0, a, w []float32, stride int, skipZero bool) {
	t.Helper()
	detected := hasAVX2
	defer func() { hasAVX2 = detected }()
	want := append([]float32(nil), acc0...)
	panelRef(want, a, w, stride, skipZero)
	for _, lanes := range []bool{false, detected} {
		hasAVX2 = lanes
		panel, rows := append([]float32(nil), acc0...), append([]float32(nil), acc0...)
		HalfMulAddPanel(panel, a, w, stride, skipZero)
		for i, av := range a {
			if av == 0 && skipZero {
				continue
			}
			HalfMulAddRow(rows, av, w[i*stride:i*stride+len(rows)])
		}
		for c := range want {
			if !sameValue(panel[c], want[c]) || !sameValue(rows[c], want[c]) {
				t.Fatalf("%s (lanes %v, %d rows × %d, stride %d, skipZero %v): acc[%d] = %#08x as a panel, %#08x row by row, want %#08x",
					label, lanes, len(a), len(acc0), stride, skipZero, c,
					math.Float32bits(panel[c]), math.Float32bits(rows[c]), math.Float32bits(want[c]))
			}
		}
	}
}

// TestPanelMatchesRows holds the panel to its rows and to RoundHalfRef: on
// random panels of every width from 0 to 41 (no chunk, whole chunks, a tail)
// at strides at and past the width, from no row to 20, a third of the
// activations ±0, skipped and not; and with a value of the rare band planted so
// that the lanes bail in the first chunk, the last chunk and the tail of the
// first, a middle and the last row — the rows behind a bail, and the chunks of
// its row before it, must come out as if it had not happened. Under skipZero a
// zero activation meets an Inf weight too: skipped, its NaN must not appear.
func TestPanelMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	negZero := float32(math.Copysign(0, -1))
	draw := func(n int, sd float64, zeros bool) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = RoundHalf(float32(rng.NormFloat64() * sd))
			if zeros && i%3 == 0 {
				s[i] = []float32{0, negZero}[rng.Intn(2)]
			}
		}
		return s
	}
	for n := 0; n <= 41; n++ {
		for _, rows := range []int{0, 1, 2, 7, 20} {
			stride := n + rng.Intn(3)*rng.Intn(9)
			a, w := draw(rows, 1, true), draw(rows*stride+n, 0.05, false)
			for _, skipZero := range []bool{false, true} {
				checkPanel(t, "random", draw(n, 1, false), a, w, stride, skipZero)
			}
		}
	}
	inf := float32(math.Inf(1))
	const n, rows, stride = 3*laneChunk + 3, 6, 3*laneChunk + 5
	for _, sp := range []float32{inf, -inf, float32(math.NaN()), 65504 /* × 2 overflows */} {
		for _, row := range []int{0, 3, rows - 1} {
			for _, col := range []int{2, 2*laneChunk + 7, n - 1} {
				a, w := draw(rows, 1, false), draw(rows*stride, 0.05, false)
				a[row] = 2
				w[row*stride+col] = sp
				checkPanel(t, fmt.Sprintf("%v at row %d col %d", sp, row, col), draw(n, 1, false), a, w, stride, false)
				// The same row skipped: the rare value is never multiplied.
				a[row] = negZero
				checkPanel(t, fmt.Sprintf("%v at skipped row %d col %d", sp, row, col), draw(n, 1, false), a, w, stride, true)
			}
		}
	}
}

// FuzzHalfPanel holds HalfMulAddPanel to its definition and to its rows on
// arbitrary float32 bit patterns: data is cut into the activations and then
// the weight rows, width below and above a chunk, stride at or past it. The
// seeds bail in the first chunk, the last chunk and the last row, run a panel
// narrower than a chunk and one with stride past the width, and skip rows of
// +0 and -0 activations against weights that would have made NaNs of them.
func FuzzHalfPanel(f *testing.F) {
	pack := func(vals ...float32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	// panel returns rows activations (the given ones, then 1s) and rows×stride
	// weights of 0.5 with sp at (row, col).
	panel := func(rows, stride, row, col int, sp float32, a ...float32) []byte {
		vals := make([]float32, rows+rows*stride)
		for i := range vals {
			vals[i] = 0.5
			if i < rows {
				vals[i] = 1
			}
		}
		copy(vals, a)
		vals[rows+row*stride+col] = sp
		return pack(vals...)
	}
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	f.Add(uint8(16), uint8(0), false, panel(3, 16, 0, 1, inf))                     // bail in the first chunk
	f.Add(uint8(16), uint8(0), false, panel(3, 16, 1, 15, float32(math.NaN())))    // bail in the last chunk
	f.Add(uint8(19), uint8(0), false, panel(3, 19, 2, 9, 65536))                   // bail in the last row
	f.Add(uint8(19), uint8(0), false, panel(3, 19, 1, 18, inf))                    // a rare value in the tail
	f.Add(uint8(8), uint8(5), true, panel(4, 13, 2, 3, 1e-7))                      // stride > n
	f.Add(uint8(5), uint8(0), true, panel(4, 5, 0, 0, -inf))                       // n < 8
	f.Add(uint8(9), uint8(2), true, panel(3, 11, 1, 4, inf, 0, negZero, 0))        // all-zero rows, skipped
	f.Add(uint8(9), uint8(2), false, panel(3, 11, 1, 4, inf, 0, negZero, 0))       // and multiplied: 0·Inf
	f.Add(uint8(24), uint8(1), true, panel(5, 25, 4, 23, 3e-6, 2, negZero, -1, 0)) // -0 among live rows
	// Products the converter alone would round differently or must not see:
	// inside (2⁻²⁵, 2⁻²⁴), the 2⁻²⁵ tie, and either side of the overflow edge.
	for _, edge := range []uint32{0x33400000, 0x337fffff, 0x33000000, f32HalfOver - 1, f32HalfOver} {
		f.Add(uint8(16), uint8(0), false, panel(3, 16, 1, 9, math.Float32frombits(edge)))
	}
	f.Fuzz(func(t *testing.T, width, gap uint8, skipZero bool, data []byte) {
		n, stride := int(width%42), int(width%42)+int(gap%7)
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		rows := len(vals) / (1 + stride)
		if stride == 0 {
			rows = min(len(vals), 4)
		}
		a, w := vals[:rows], vals[rows:]
		acc0 := make([]float32, n)
		for c := range acc0 {
			acc0[c] = 0.25
		}
		checkPanel(t, "fuzz", acc0, a, w, stride, skipZero)
	})
}

// TestAsmIsVEXOnly scans every *_amd64.s of the package for the two mistakes
// that cost a microsecond a call and break nothing: a legacy-SSE instruction
// (any mnemonic not starting with V) on an X or Y register, which makes the CPU
// save the dirty upper YMM halves at the next VEX instruction, and a RET out
// of a routine that used vector registers without a VZEROUPPER just before it,
// which leaves them dirty for the Go code that follows. It also pins the
// converter's imm8: $4 would take the rounding mode from MXCSR, which no test
// can set and nothing promises.
func TestAsmIsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) < 2 {
		t.Fatalf("found %v (%v): halfrow_amd64.s and floatrow_amd64.s at least", files, err)
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
			usesVec := vecReg.MatchString(args) || macros[name]
			if usesVec && macro != "" {
				macros[macro] = true
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
