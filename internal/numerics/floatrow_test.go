package numerics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Values that separate a lane from the scalar instruction if anything does:
// both zeros, the subnormal ends, both infinities, quiet and signalling NaNs of
// four payloads and both signs, and the largest finite values (whose products
// and sums overflow).
var floatRowSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00001),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xffbfffff),
}

// drawSpecial returns n values ~ N(0, sd²), each replaced by one of
// floatRowSpecials with probability p.
func drawSpecial(rng *rand.Rand, n int, sd, p float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * sd)
		if rng.Float64() < p {
			s[i] = floatRowSpecials[rng.Intn(len(floatRowSpecials))]
		}
	}
	return s
}

// panelDef is MulAddPanel from its definition, one indexed product at a time.
func panelDef(acc, a, w []float32, stride int) {
	for i, av := range a {
		for c := range acc {
			acc[c] += av * w[i*stride+c]
		}
	}
}

// checkFloatPanel holds MulAddPanel, as dispatched now, to the Go loop bit for
// bit — NaN payloads included: the lanes give VMULPS and VADDPS the operand
// order the compiler gives the loop's MULSS and ADDSS — and to the definition
// up to payloads, from accumulators that start at acc0.
func checkFloatPanel(t *testing.T, label string, acc0, a, w []float32, stride int) {
	t.Helper()
	got, want, def := append([]float32(nil), acc0...), append([]float32(nil), acc0...), append([]float32(nil), acc0...)
	MulAddPanel(got, a, w, stride)
	if len(a) > 0 {
		mulAddPanelGo(want, a, w, stride)
		panelDef(def, a, w, stride)
	}
	for c := range want {
		if !sameBits(got[c], want[c]) || !sameValue(got[c], def[c]) {
			t.Fatalf("%s (lanes %v, %d rows × %d, stride %d): acc[%d] = %#08x, Go loop %#08x, definition %#08x",
				label, hasAVX2, len(a), len(acc0), stride, c,
				math.Float32bits(got[c]), math.Float32bits(want[c]), math.Float32bits(def[c]))
		}
	}
}

// TestMulAddPanelMatchesGo holds the float32 panel to its Go loop on every
// width from 0 to 41 — no block, each of the 16-, 12-, 8- and 4-wide blocks
// alone and in every combination, a tail behind them — times every row count
// from 0 to 30, strides at and past the width, a third of the activations ±0:
// first on ordinary values, then with ±0, NaNs of several payloads, ±Inf,
// subnormals and overflowing values strewn over activations, weights and the
// starting accumulators, so that NaN meets NaN in multiplies and in adds. Then
// an Inf weight under a -0 activation in a column of each block and of the
// tail: the row is multiplied like any other, so its NaN must reach that
// column's accumulator and no other.
func TestMulAddPanelMatchesGo(t *testing.T) { eachDispatch(t, testMulAddPanelMatchesGo) }

func testMulAddPanelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	negZero := float32(math.Copysign(0, -1))
	for n := 0; n <= 41; n++ {
		for rows := 0; rows <= 30; rows++ {
			stride := n + rng.Intn(3)*rng.Intn(9)
			for _, p := range []float64{0, 0.15} {
				a, w, acc0 := drawSpecial(rng, rows, 1, p), drawSpecial(rng, rows*stride+n, 0.1, p/3), drawSpecial(rng, n, 1, p)
				for i := 0; i < rows; i += 3 {
					a[i] = []float32{0, negZero}[rng.Intn(2)]
				}
				checkFloatPanel(t, fmt.Sprintf("random (specials %v)", p), acc0, a, w, stride)
			}
		}
	}
	inf := float32(math.Inf(1))
	const n, rows, stride = 16 + 12 + 3, 5, 16 + 12 + 5
	for _, col := range []int{0, 15, 16, 23, 24, 27, 28, n - 1} {
		for _, row := range []int{0, 2, rows - 1} {
			a, w, acc0 := drawSpecial(rng, rows, 1, 0), drawSpecial(rng, rows*stride, 0.1, 0), make([]float32, n)
			a[row], w[row*stride+col] = negZero, inf
			label := fmt.Sprintf("-0 × Inf at row %d col %d", row, col)
			checkFloatPanel(t, label, acc0, a, w, stride)
			got := make([]float32, n)
			MulAddPanel(got, a, w, stride)
			for c, v := range got {
				if isNaN := v != v; isNaN != (c == col) {
					t.Fatalf("%s: acc[%d] = %v", label, c, v)
				}
			}
		}
	}
}

// FuzzMulAddPanel holds the float32 panel to its Go loop and its definition on
// arbitrary bit patterns: data is cut into the starting accumulators, the
// activations and the weight rows, stride at or past the width. The seeds run
// each block size alone, blocks in a row, and the tail, with an Inf weight
// under a -0 or +0 activation (0·Inf = NaN reaches the accumulator), NaNs of
// two payloads meeting in the multiply and in the add, and an overflowing sum.
func FuzzMulAddPanel(f *testing.F) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	nanA, nanB := math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00001)
	// seed is n accumulators of acc, then rows activations (the given ones,
	// then 1s), then rows×stride weights of 0.5 with sp at (row, col).
	seed := func(n, gap, rows, row, col int, acc, sp float32, a ...float32) []byte {
		stride := n + gap
		vals := make([]float32, n+rows+rows*stride)
		for i := range vals {
			switch {
			case i < n:
				vals[i] = acc
			case i < n+rows:
				vals[i] = 1
			default:
				vals[i] = 0.5
			}
		}
		copy(vals[n:], a)
		vals[n+rows+row*stride+col] = sp
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(uint8(16), uint8(0), seed(16, 0, 3, 1, 9, 0, inf, 2, negZero))            // the 16-block: -0 × Inf
	f.Add(uint8(16), uint8(2), seed(16, 2, 3, 0, 15, 0, -inf, 0, 2))                // and +0 × -Inf, the last column
	f.Add(uint8(12), uint8(3), seed(12, 3, 4, 2, 11, nanA, nanB))                   // the 12-block: NaN + NaN
	f.Add(uint8(8), uint8(0), seed(8, 0, 3, 0, 7, 1, nanB, nanA))                   // the 8-block: NaN × NaN
	f.Add(uint8(4), uint8(1), seed(4, 1, 5, 4, 3, math.MaxFloat32, 3e38, 2, 0))     // the 4-block: overflow
	f.Add(uint8(3), uint8(0), seed(3, 0, 2, 1, 2, -inf, 1e-40))                     // the tail alone
	f.Add(uint8(41), uint8(2), seed(41, 2, 3, 2, 40, 0.25, -inf, 1e-40, 0, -1))     // 16, 16, 8 and a tail
	f.Add(uint8(31), uint8(0), seed(31, 0, 2, 1, 27, inf, -inf, 1, 1))              // 16, 12 and a tail: Inf - Inf
	f.Add(uint8(20), uint8(6), seed(20, 6, 3, 0, 16, 0, nanA, negZero, 0, negZero)) // 16 and 4, every row ±0
	detected := hasAVX2
	f.Fuzz(func(t *testing.T, width, gap uint8, data []byte) {
		defer func() { hasAVX2 = detected }()
		n, stride := int(width%42), int(width%42)+int(gap%7)
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		acc0 := make([]float32, n)
		vals = vals[copy(acc0, vals):]
		rows := len(vals) / (1 + stride)
		if stride == 0 {
			rows = min(len(vals), 4)
		}
		for _, lanes := range []bool{false, detected} {
			hasAVX2 = lanes
			checkFloatPanel(t, "fuzz", acc0, vals[:rows], vals[rows:], stride)
		}
	})
}

// quantLaneCases are the quantizers TestQuantLanesMatchGo runs: both widths
// over ranges from where the scale underflows to 0 or is a float32 subnormal to
// the largest one a finite range allows (some with Saturate's floor an ulp off
// the bottom code's value), the zero Quantizer, and quantizers assembled from Scale
// and Bits alone — both saturation bounds 0, so that every finite value is in
// two of the switch's cases at once and the order of the blends shows.
func quantLaneCases() []Quantizer {
	qs := []Quantizer{{}}
	for _, bits := range []int{8, 16} {
		for _, maxAbs := range []float32{1e-44, 1e-40, 1e-30, 3e-5, 0.37, 1, 4, 8, 127, 1000.5, 3.3e9, 1e30, 3e38} {
			qs = append(qs, MustQuantizer(maxAbs, bits))
		}
		for _, scale := range []float32{1e-30, 1, 3e38} {
			qs = append(qs, Quantizer{Scale: scale, Bits: bits})
		}
	}
	return qs
}

// TestQuantLanesMatchGo holds Quantizer.roundInto, as dispatched now, to its
// Go loop bit for bit, for every quantizer of quantLaneCases and both floors
// (Round's -Inf, Saturate's -MaxAbs()-Scale): on every tie (k+½)·Scale from two
// codes below the code range to two above it with its two float32 neighbours —
// where a quotient rounded or converted otherwise than the Go expression's
// would land on the other code — on ±0, ±Inf, the subnormal ends, NaNs of four
// payloads and 2¹⁶ random bit patterns; all of them as one row out of place,
// then in place in rows of every length from 0 to 17.
func TestQuantLanesMatchGo(t *testing.T) { eachDispatch(t, testQuantLanesMatchGo) }

func testQuantLanesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	random := make([]float32, 1<<16)
	for i := range random {
		random[i] = math.Float32frombits(rng.Uint32())
	}
	inf := float32(math.Inf(1))
	for _, q := range quantLaneCases() {
		vals := append(append([]float32(nil), floatRowSpecials...), random...)
		floors := []float32{-inf}
		if q.Bits != 0 { // the zero Quantizer has no code range, and so no MaxAbs
			floors = append(floors, -q.MaxAbs()-q.Scale)
			lo, hi := q.qlimits()
			for k := lo - 2; k <= hi+1; k++ {
				tie := float32((float64(k) + 0.5) * float64(q.Scale))
				vals = append(vals, tie, math.Nextafter32(tie, inf), math.Nextafter32(tie, -inf))
			}
		}
		vLo, vHi := q.Dequantize(q.saturated(-1)), q.Dequantize(q.saturated(1))
		for _, floor := range floors {
			want, got := make([]float32, len(vals)), make([]float32, len(vals))
			q.roundIntoGo(want, vals, floor, vLo, vHi)
			q.roundInto(got, vals, floor)
			inPlace := append([]float32(nil), vals...)
			for lo, n := 0, 0; lo < len(vals); lo, n = lo+n, (n+1)%18 {
				row := inPlace[lo:min(lo+n, len(vals))]
				q.roundInto(row, row, floor)
			}
			for i, w := range want {
				if !sameBits(got[i], w) || !sameBits(inPlace[i], w) {
					t.Fatalf("%d-bit quantizer, scale %v, sat [%v, %v], floor %v (lanes %v): roundInto(%v [%#08x]) = %#08x (%#08x in place), Go loop %#08x",
						q.Bits, q.Scale, q.satLo, q.satHi, floor, hasAVX2, vals[i], math.Float32bits(vals[i]),
						math.Float32bits(got[i]), math.Float32bits(inPlace[i]), math.Float32bits(w))
				}
			}
		}
	}
}

// checkRow holds a unary row primitive to its scalar definition, bit for bit,
// over floatRowSpecials, the neighbours of each bound and 10⁴ random values, in
// rows of every length from 0 to 25 — no chunk, whole chunks, tails — out of
// place and in place.
func checkRow(t *testing.T, name string, bounds []float32, row func(out, x []float32), scalar func(v float32) float32) {
	t.Helper()
	inf := float32(math.Inf(1))
	vals := append([]float32(nil), floatRowSpecials...)
	for _, b := range bounds {
		vals = append(vals, b, math.Nextafter32(b, inf), math.Nextafter32(b, -inf))
	}
	vals = append(vals, drawSpecial(rand.New(rand.NewSource(97)), 10000, 4, 0)...)
	for lo, n := 0, 0; lo < len(vals); lo, n = lo+n, (n+1)%26 {
		x := vals[lo:min(lo+n, len(vals))]
		out, inPlace := make([]float32, len(x)), append([]float32(nil), x...)
		row(out, x)
		row(inPlace, inPlace)
		for i, v := range x {
			if want := scalar(v); !sameBits(out[i], want) || !sameBits(inPlace[i], want) {
				t.Fatalf("%s(%v [%#08x]) in a row of %d (lanes %v) = %#08x (%#08x in place), scalar %#08x", name, v,
					math.Float32bits(v), len(x), hasAVX2, math.Float32bits(out[i]), math.Float32bits(inPlace[i]), math.Float32bits(want))
			}
		}
	}
}

// TestRectifierRowsMatchScalar holds ReLURow and ClipRow to the compares they
// stand for — written out here, so that rows and oracle cannot drift together —
// and to what those compares make of NaN and -0: ReLU sends both to +0, a clip
// passes both through, payload and sign untouched.
func TestRectifierRowsMatchScalar(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		checkRow(t, "ReLURow", nil, ReLURow, func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		})
		for _, b := range [][2]float32{{0, 6}, {-2.5, 2.5}, {-1e-40, math.MaxFloat32}} {
			lo, hi := b[0], b[1]
			checkRow(t, fmt.Sprintf("ClipRow[%v, %v]", lo, hi), b[:], func(out, x []float32) { ClipRow(out, x, lo, hi) },
				func(v float32) float32 {
					switch {
					case v < lo:
						return lo
					case v > hi:
						return hi
					}
					return v
				})
		}
		nan, negZero := math.Float32frombits(0xffd00001), float32(math.Copysign(0, -1))
		x := []float32{nan, negZero, nan, negZero, nan, negZero, nan, negZero, nan, negZero} // a chunk and a tail
		relu, clip := make([]float32, len(x)), make([]float32, len(x))
		ReLURow(relu, x)
		ClipRow(clip, x, 0, 6)
		for i, v := range x {
			if !sameBits(relu[i], 0) || !sameBits(clip[i], v) {
				t.Fatalf("element %d, %#08x: ReLURow %#08x, want +0; ClipRow %#08x, want it unchanged", i,
					math.Float32bits(v), math.Float32bits(relu[i]), math.Float32bits(clip[i]))
			}
		}
	})
}

// TestMaxRowMatchesScalar holds MaxRow to `if v > m { m = v }` bit for bit:
// every pair of floatRowSpecials — a NaN on either side never moves the
// maximum, +0 does not displace -0 nor -0 +0 — and random pairs, in rows of
// every length from 0 to 25.
func TestMaxRowMatchesScalar(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		var ms, vs []float32
		for _, m := range floatRowSpecials {
			for _, v := range floatRowSpecials {
				ms, vs = append(ms, m), append(vs, v)
			}
		}
		rng := rand.New(rand.NewSource(101))
		ms, vs = append(ms, drawSpecial(rng, 5000, 2, 0.05)...), append(vs, drawSpecial(rng, 5000, 2, 0.05)...)
		for lo, n := 0, 0; lo < len(vs); lo, n = lo+n, (n+1)%26 {
			hi := min(lo+n, len(vs))
			got := append([]float32(nil), ms[lo:hi]...)
			MaxRow(got, vs[lo:hi])
			for i, v := range vs[lo:hi] {
				want := ms[lo+i]
				if v > want {
					want = v
				}
				if !sameBits(got[i], want) {
					t.Fatalf("MaxRow(m = %#08x, v = %#08x) in a row of %d (lanes %v) = %#08x, scalar %#08x",
						math.Float32bits(ms[lo+i]), math.Float32bits(v), hi-lo, hasAVX2, math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
		}
	})
}

// naiveDiffs is the diff scans' oracle, one element at a time: the first and
// the last index at which a and b differ as tensor elements (len(a) and -1
// when none does).
func naiveDiffs(a, b []float32) (first, last int) {
	first, last = len(a), -1
	for i, v := range a {
		if v == b[i] || v != v && b[i] != b[i] {
			continue
		}
		first, last = min(first, i), i
	}
	return first, last
}

// checkDiffs holds FirstDiff and LastDiff, as dispatched now, to naiveDiffs.
func checkDiffs(t *testing.T, label string, a, b []float32) {
	t.Helper()
	wantFirst, wantLast := naiveDiffs(a, b)
	if got := FirstDiff(a, b); got != wantFirst {
		t.Fatalf("%s (lanes %v, len %d): FirstDiff = %d, want %d", label, hasAVX2, len(a), got, wantFirst)
	}
	if got := LastDiff(a, b); got != wantLast {
		t.Fatalf("%s (lanes %v, len %d): LastDiff = %d, want %d", label, hasAVX2, len(a), got, wantLast)
	}
}

// equalFlip returns v with other bits that are the same tensor element: the
// other zero for ±0, another payload for a NaN, v itself otherwise.
func equalFlip(v float32) float32 {
	switch {
	case v == 0:
		return -v
	case v != v:
		return math.Float32frombits(math.Float32bits(v) ^ 0x80000001)
	}
	return v
}

// TestDiffScansMatchNaive holds FirstDiff and LastDiff to the per-element
// oracle on rows of every length from 0 to 140 — no chunk, a chunk, the
// four-chunk steps of the lanes and a tail — of ±0, NaNs of two payloads, ±Inf
// and ordinary values, where b repeats a with equal-as-element bit changes
// (the other zero, another NaN payload) strewn at random, so that the lanes
// hand false alarms back to the Go loop, and with 0–3 real differences; then
// with one real difference at every position of every length to 72, behind a
// false alarm in every chunk; and with b longer than a.
func TestDiffScansMatchNaive(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		negZero := float32(math.Copysign(0, -1))
		specials := []float32{0, negZero, math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc),
			float32(math.Inf(1)), float32(math.Inf(-1)), 1.5, -2}
		for n := 0; n <= 140; n++ {
			for rep := 0; rep < 40; rep++ {
				a := make([]float32, n, n+rng.Intn(9))
				for i := range a {
					a[i] = specials[rng.Intn(len(specials))]
				}
				b := append([]float32(nil), a[:cap(a)]...)
				for i := range a {
					if rng.Intn(4) == 0 {
						b[i] = equalFlip(b[i])
					}
				}
				for k := rng.Intn(4); k > 0 && n > 0; k-- {
					i := rng.Intn(n)
					if b[i] == b[i] {
						b[i] = -b[i] - 1
					} else {
						b[i] = 3
					}
				}
				checkDiffs(t, "random", a, b)
			}
		}
		for n := 1; n <= 72; n++ {
			a := drawSpecial(rng, n, 1, 0)
			for i := 0; i < n; i += 5 {
				a[i] = []float32{0, negZero, float32(math.NaN())}[rng.Intn(3)]
			}
			for p := 0; p < n; p++ {
				b := append([]float32(nil), a...)
				for i := 0; i < n; i += 5 {
					b[i] = equalFlip(b[i])
				}
				b[p] = math.Nextafter32(b[p], float32(math.Inf(1)))
				if a[p] != a[p] {
					b[p] = 1
				}
				checkDiffs(t, fmt.Sprintf("one difference at %d", p), a, b)
			}
		}
	})
}

// FuzzDiffRow holds FirstDiff and LastDiff to the per-element oracle, with the
// lanes off and on: data is the row a, and b repeats it with the bit patterns
// of flips — records of a 2-byte index and a 4-byte XOR mask — changed. A
// sign flip on a zero and a payload change on a NaN are no difference; the
// seeds put them in every chunk around a real mismatch in the first, the last
// and the tail chunk.
func FuzzDiffRow(f *testing.F) {
	row := func(vals ...float32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	flip := func(at ...[2]uint32) []byte {
		var b []byte
		for _, r := range at {
			b = binary.LittleEndian.AppendUint16(b, uint16(r[0]))
			b = binary.LittleEndian.AppendUint32(b, r[1])
		}
		return b
	}
	const sign, payload, low = 0x80000000, 0x00000003, 0x00000001
	zeros := make([]float32, 45) // five chunks and a tail of 5
	nans := make([]float32, 45)
	for i := range nans {
		nans[i] = math.Float32frombits(0x7fc00000 | uint32(i))
	}
	ones := append([]float32(nil), zeros...)
	for i := range ones {
		ones[i] = float32(i)
	}
	f.Add(row(zeros...), flip([2]uint32{0, sign}, [2]uint32{3, low}, [2]uint32{9, sign}, [2]uint32{44, sign}))        // a difference in the first chunk
	f.Add(row(zeros...), flip([2]uint32{1, sign}, [2]uint32{17, sign}, [2]uint32{36, low}, [2]uint32{38, sign}))      // in the last chunk
	f.Add(row(nans...), flip([2]uint32{2, payload}, [2]uint32{30, sign}, [2]uint32{42, 0x7fc00000}))                  // in the tail, NaN → 0
	f.Add(row(nans...), flip([2]uint32{0, payload}, [2]uint32{8, payload}, [2]uint32{16, payload}, [2]uint32{40, 1})) // false alarms only
	f.Add(row(ones...), flip([2]uint32{0, sign}))                                                                     // +0 → -0 at the front, 1 → -1 nowhere
	f.Add(row(ones...), flip([2]uint32{33, low}, [2]uint32{35, sign}))
	f.Add(row(ones[:7]...), flip([2]uint32{6, sign})) // no chunk at all
	detected := hasAVX2
	f.Fuzz(func(t *testing.T, data, flips []byte) {
		defer func() { hasAVX2 = detected }()
		a := make([]float32, len(data)/4)
		for i := range a {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		b := append([]float32(nil), a...)
		for ; len(flips) >= 6 && len(b) > 0; flips = flips[6:] {
			i := int(binary.LittleEndian.Uint16(flips)) % len(b)
			b[i] = math.Float32frombits(math.Float32bits(b[i]) ^ binary.LittleEndian.Uint32(flips[2:]))
		}
		for _, lanes := range []bool{false, detected} {
			hasAVX2 = lanes
			checkDiffs(t, "fuzz", a, b)
		}
	})
}
