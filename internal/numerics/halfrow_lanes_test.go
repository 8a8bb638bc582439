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

// checkPanel holds HalfMulAddPanel, as dispatched now, to its definition and
// to HalfMulAddRow taken row by row, from accumulators that start at acc0 —
// and, with the lanes on, to the Go loops bit for bit, NaN payloads included:
// the converter keeps ten bits of a NaN's payload where RoundHalfRef
// canonicalizes it, so a non-finite accumulator that the lanes stored shows.
func checkPanel(t *testing.T, label string, acc0, a, w []float32, stride int, skipZero bool) {
	t.Helper()
	run := func(f func(acc []float32)) []float32 {
		acc := append([]float32(nil), acc0...)
		f(acc)
		return acc
	}
	want := run(func(acc []float32) { panelRef(acc, a, w, stride, skipZero) })
	panel := run(func(acc []float32) { HalfMulAddPanel(acc, a, w, stride, skipZero) })
	rows := run(func(acc []float32) {
		for i, av := range a {
			if av == 0 && skipZero {
				continue
			}
			HalfMulAddRow(acc, av, w[i*stride:i*stride+len(acc)])
		}
	})
	loops := panel
	if hasAVX2 {
		hasAVX2 = false
		loops = run(func(acc []float32) { HalfMulAddPanel(acc, a, w, stride, skipZero) })
		hasAVX2 = true
	}
	for c := range want {
		if !sameValue(panel[c], want[c]) || !sameValue(rows[c], want[c]) || !sameBits(panel[c], loops[c]) {
			t.Fatalf("%s (lanes %v, %d rows × %d, stride %d, skipZero %v): acc[%d] = %#08x as a panel, %#08x by the Go loops, %#08x row by row, want %#08x",
				label, hasAVX2, len(a), len(acc0), stride, skipZero, c, math.Float32bits(panel[c]),
				math.Float32bits(loops[c]), math.Float32bits(rows[c]), math.Float32bits(want[c]))
		}
	}
}

// TestPanelMatchesRows holds the panel to its rows and to RoundHalfRef, lanes
// off and on: on random panels of every width from 0 to 59 (each sequence of
// column blocks the lanes cut a width into, with and without a tail) at strides
// at and past the width, from no row to 20, a third of the activations ±0,
// skipped and not; and with whatever makes a column block fall back to the Go
// loop planted in every chunk of a 32-, a 16- and an 8-column block and in the
// tail — a block that was stored before its verdict, tested in part, or redone
// from anywhere but its first row would show in that column, and in the
// columns around it:
//
//   - a rare product (±Inf or NaN weight, a finite product past HalfMax) in
//     the first, a middle and the last row, and the same row skipped, when the
//     rare value is never multiplied;
//   - ±Inf, a quiet and a signalling NaN in the incoming accumulator, under
//     products that are all finite;
//   - a -0 accumulator under rows of ±0 activations only, skipped (it stays
//     -0) and multiplied (a +0 product makes it +0);
//   - an Inf weight under a ±0 activation: skipped, its NaN must not appear;
//     multiplied, it must.
func TestPanelMatchesRows(t *testing.T) { eachDispatch(t, testPanelMatchesRows) }

func testPanelMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	negZero := float32(math.Copysign(0, -1))
	draw := func(n int, sd float64, zeros int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = RoundHalf(float32(rng.NormFloat64() * sd))
			if zeros > 0 && i%zeros == 0 {
				s[i] = []float32{0, negZero}[rng.Intn(2)]
			}
		}
		return s
	}
	for n := 0; n <= 59; n++ {
		for _, rows := range []int{0, 1, 2, 7, 20} {
			stride := n + rng.Intn(3)*rng.Intn(9)
			a, w := draw(rows, 1, 3), draw(rows*stride+n, 0.05, 0)
			for _, skipZero := range []bool{false, true} {
				checkPanel(t, "random", draw(n, 1, 0), a, w, stride, skipZero)
			}
		}
	}
	// NaNs with payloads the converter would keep.
	inf, nan, snan := float32(math.Inf(1)), math.Float32frombits(0xffc54000), math.Float32frombits(0x7fa54000)
	// One 32-, one 16- and one 8-column block and a tail of three.
	const n, rows, stride = 32 + 16 + 8 + 3, 6, 32 + 16 + 8 + 5
	for _, col := range []int{3, 12, 21, 30, 32 + 5, 32 + 14, 48 + 7, n - 1} {
		for _, sp := range []float32{inf, -inf, nan, snan, 65504 /* × 2 overflows */} {
			for _, row := range []int{0, 3, rows - 1} {
				a, w := draw(rows, 1, 0), draw(rows*stride, 0.05, 0)
				a[row] = 2
				w[row*stride+col] = sp
				checkPanel(t, fmt.Sprintf("%v at row %d col %d", sp, row, col), draw(n, 1, 0), a, w, stride, false)
				a[row] = negZero
				checkPanel(t, fmt.Sprintf("%v at skipped row %d col %d", sp, row, col), draw(n, 1, 0), a, w, stride, true)
			}
		}
		for _, skipZero := range []bool{false, true} {
			for _, sp := range []float32{inf, -inf, nan, snan} {
				acc0 := draw(n, 1, 0)
				acc0[col] = sp
				checkPanel(t, fmt.Sprintf("%v in acc[%d]", sp, col), acc0, draw(rows, 1, 3), draw(rows*stride, 0.05, 0), stride, skipZero)
			}
			acc0 := draw(n, 1, 0)
			acc0[col] = negZero
			checkPanel(t, fmt.Sprintf("-0 in acc[%d] under ±0 rows", col), acc0, draw(rows, 1, 1), draw(rows*stride, 0.05, 0), stride, skipZero)
			for _, zero := range []float32{0, negZero} {
				a, w := draw(rows, 1, 0), draw(rows*stride, 0.05, 0)
				a[2] = zero
				w[2*stride+col] = inf
				checkPanel(t, fmt.Sprintf("%v × Inf at col %d", zero, col), draw(n, 1, 0), a, w, stride, skipZero)
			}
		}
	}
}

// FuzzHalfPanel holds HalfMulAddPanel to its definition and to its rows on
// arbitrary float32 bit patterns (checkPanel holds the lanes, where there are
// any, to the Go loops, and so both to the definition): data is cut into
// the activations and then the weight rows, width below and above a column
// block, stride at or past it; the accumulators start at 0.25 but for one, at
// column accCol, which starts at accBits. The seeds put a rare product in the
// first chunk, the last chunk and the last row, run a panel narrower than a
// chunk and one with stride past the width, skip rows of +0 and -0 activations
// against weights that would have made NaNs of them, and start an accumulator
// of a 32-, a 16- and an 8-column block and of the tail at ±Inf, NaN, a
// signalling NaN and -0.
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
	quarter := math.Float32bits(0.25)
	f.Add(uint8(16), uint8(0), false, quarter, uint8(0), panel(3, 16, 0, 1, inf))                     // a rare product in the first chunk
	f.Add(uint8(16), uint8(0), false, quarter, uint8(0), panel(3, 16, 1, 15, float32(math.NaN())))    // in the last chunk
	f.Add(uint8(19), uint8(0), false, quarter, uint8(0), panel(3, 19, 2, 9, 65536))                   // in the last row
	f.Add(uint8(19), uint8(0), false, quarter, uint8(0), panel(3, 19, 1, 18, inf))                    // in the tail
	f.Add(uint8(8), uint8(5), true, quarter, uint8(0), panel(4, 13, 2, 3, 1e-7))                      // stride > n
	f.Add(uint8(5), uint8(0), true, quarter, uint8(0), panel(4, 5, 0, 0, -inf))                       // n < 8
	f.Add(uint8(9), uint8(2), true, quarter, uint8(0), panel(3, 11, 1, 4, inf, 0, negZero, 0))        // all-zero rows, skipped
	f.Add(uint8(9), uint8(2), false, quarter, uint8(0), panel(3, 11, 1, 4, inf, 0, negZero, 0))       // and multiplied: 0·Inf
	f.Add(uint8(24), uint8(1), true, quarter, uint8(0), panel(5, 25, 4, 23, 3e-6, 2, negZero, -1, 0)) // -0 among live rows
	// Products the converter alone would round differently or must not see:
	// inside (2⁻²⁵, 2⁻²⁴), the 2⁻²⁵ tie, and either side of the overflow edge —
	// in a panel of one row, where no later add rounds a wrong 2⁻²⁴ away.
	for _, edge := range []uint32{0x33400000, 0x337fffff, 0x33000000, f32HalfOver - 1, f32HalfOver} {
		f.Add(uint8(16), uint8(0), false, quarter, uint8(0), panel(1, 16, 0, 9, math.Float32frombits(edge)))
	}
	// What only the verdict after a block's last row sees: two halves whose
	// product overflows in the last row of the second block, and an accumulator
	// that comes in non-finite, or as -0 under rows of ±0 alone.
	f.Add(uint8(40), uint8(0), false, quarter, uint8(0), panel(3, 40, 2, 37, 65504, 1, 1, 2))
	for i, acc := range []uint32{0x7f800000, 0xff800000, 0x7fc00000, 0x7fa00000} {
		f.Add(uint8(59), uint8(1), i%2 == 0, acc, []uint8{5, 37, 50, 57}[i], panel(4, 60, 1, 7, 0.25, 1, 0, -2))
	}
	f.Add(uint8(59), uint8(0), true, uint32(f32Sign), uint8(20), panel(3, 59, 1, 7, 0.25, 0, negZero, 0))
	f.Add(uint8(59), uint8(0), false, uint32(f32Sign), uint8(40), panel(3, 59, 1, 7, 0.25, 0, negZero, 0))
	f.Fuzz(func(t *testing.T, width, gap uint8, skipZero bool, accBits uint32, accCol uint8, data []byte) {
		n, stride := int(width%60), int(width%60)+int(gap%7)
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
		if n > 0 {
			acc0[int(accCol)%n] = math.Float32frombits(accBits)
		}
		checkPanel(t, "fuzz", acc0, a, w, stride, skipZero)
	})
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
