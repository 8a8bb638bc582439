package numerics

import (
	"math"
	"testing"
)

// halfRowMultipliers is the fixed multiplier set of TestHalfRowMatchesRef:
// ordinary values, exact powers of two that slide every half into every
// band, the smallest and largest halves, values that are not halves at all,
// and every special operand.
func halfRowMultipliers() []float32 {
	inf := float32(math.Inf(1))
	ms := []float32{
		0, 1, 0.5, 2, 3, 0.1, 0.3333, 1.0009766, 0.99951172, 7.5, 100, 1000, 65504,
		1e-3, 1e-5, 6.1035156e-05 /* 2⁻¹⁴ */, 6.0975552e-05 /* largest subnormal half */, 5.9604645e-08, /* 2⁻²⁴ */
		2.9802322e-08 /* 2⁻²⁵ */, 4.4703484e-08 /* 1.5·2⁻²⁵ */, 1e-10, 1e-38, 1e-45, /* float32 subnormal */
		32768, 65519.996, 65520, 65536, 1e9, 3e38,
		inf, float32(math.NaN()),
	}
	for e := -30; e <= 18; e += 3 {
		ms = append(ms, float32(math.Ldexp(1, e)), float32(math.Ldexp(1.7001953125, e)))
	}
	for _, m := range ms { // the range is over the positive half only
		ms = append(ms, -m)
	}
	return ms
}

// eachDispatch runs f as sub-test or sub-benchmark "go", with the AVX2 lanes
// of halfrow_amd64.s off (the loops of halfrow.go alone, what every other
// machine runs), and, where this machine has them, as "avx2", with them on.
func eachDispatch[T interface{ Run(string, func(T)) bool }](t T, f func(T)) {
	detected := hasAVX2
	defer func() { hasAVX2 = detected }()
	hasAVX2 = false
	t.Run("go", f)
	if detected {
		hasAVX2 = true
		t.Run("avx2", f)
	}
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// sameValue is sameBits, except that any NaN equals any NaN. When two NaNs
// of opposite sign meet in a multiply or an add, the hardware keeps the
// destination operand's sign, and which operand that is is the compiler's
// choice in each loop — no kernel, reference or fused, promises it.
func sameValue(a, b float32) bool { return sameBits(a, b) || a != a && b != b }

// TestHalfRowMatchesRef holds every row primitive to RoundHalfRef, bit for
// bit, on every FP16 value times a fixed multiplier set: 65 536 × 130
// products per primitive, with subnormal, overflowing, ±0, ±Inf and NaN
// operands on both sides.
func TestHalfRowMatchesRef(t *testing.T) { eachDispatch(t, testHalfRowMatchesRef) }

func testHalfRowMatchesRef(t *testing.T) {
	halves := make([]float32, 1<<16)
	for h := range halves {
		halves[h] = Half(h).Float32()
	}
	ms := halfRowMultipliers()
	if len(ms) < 64 {
		t.Fatalf("multiplier set has %d values, want at least 64", len(ms))
	}
	// A non-zero starting accumulator, so a wrong sign of zero shows too.
	const acc0 = 0.25
	acc := make([]float32, len(halves))
	mvec := make([]float32, len(halves))
	for _, m := range ms {
		want := func(i int) float32 { return acc0 + RoundHalfRef(m*halves[i]) }
		fail := func(prim string, i int, got float32) {
			t.Fatalf("%s: %v [%#08x] × half %#04x: acc = %v [%#08x], want %v [%#08x]", prim,
				m, math.Float32bits(m), i, got, math.Float32bits(got), want(i), math.Float32bits(want(i)))
		}

		for i := range acc {
			acc[i], mvec[i] = acc0, m
		}
		HalfMulAddRow(acc, m, halves)
		for i, got := range acc {
			if !sameValue(got, want(i)) {
				fail("HalfMulAddRow", i, got)
			}
		}

		for i := range acc {
			acc[i] = acc0
		}
		HalfMulAddVec(acc, mvec, halves)
		for i, got := range acc {
			if !sameValue(got, want(i)) {
				fail("HalfMulAddVec", i, got)
			}
		}

		// The dot form carries one accumulator through a run of products, so
		// compare runs of 8 against the same sum taken product by product.
		for lo := 0; lo < len(halves); lo += 8 {
			var ref float32 = acc0
			for i := lo; i < lo+8; i++ {
				ref += RoundHalfRef(m * halves[i])
			}
			if got := HalfDot(acc0, mvec[lo:lo+8], halves[lo:lo+8]); !sameValue(got, ref) {
				t.Fatalf("HalfDot: %v × halves %#04x…: %v [%#08x], want %v [%#08x]",
					m, lo, got, math.Float32bits(got), ref, math.Float32bits(ref))
			}
		}
	}
}

// TestHalfRoundBandEdges sweeps every float32 pattern within 2¹³ of each
// edge between rounding bands — and of every power of two from below the
// underflow edge to above the overflow edge — plus every round-to-even tie of
// the half-subnormal band with its two neighbours, through RoundHalf, through
// Codec.RoundInto, and through the row primitives (as products with 1, which
// are exact). The patterns go in as one long row, so with the lanes on every
// edge is crossed inside a chunk, the overflow edge included.
func TestHalfRoundBandEdges(t *testing.T) {
	var pats []float32
	add := func(b uint32) {
		pats = append(pats, math.Float32frombits(b), math.Float32frombits(b|f32Sign))
	}
	edges := []uint32{0, f32HalfTiny, f32HalfNormal, f32HalfOver, 0x477fe000 /* HalfMax */, 0x7f800000 /* Inf */}
	for exp := uint32(127 - 27); exp <= 127+17; exp++ {
		edges = append(edges, exp<<23)
	}
	for _, e := range edges {
		lo := uint32(0)
		if e > 1<<13 {
			lo = e - 1<<13
		}
		for b := lo; b <= e+1<<13 && b <= 0x7fffffff; b++ {
			add(b)
		}
	}
	// (k + ½)·2⁻²⁴ is the tie between subnormal halves k and k+1.
	for k := 0; k < 1024; k++ {
		tie := math.Float32bits(float32(math.Ldexp(float64(k)+0.5, -24)))
		add(tie - 1)
		add(tie)
		add(tie + 1)
	}
	want := make([]float32, len(pats))
	for i, f := range pats {
		want[i] = RoundHalfRef(f)
		if got := RoundHalf(f); !sameBits(got, want[i]) {
			t.Fatalf("RoundHalf(%#08x) = %#08x, want %#08x", math.Float32bits(f), math.Float32bits(got), math.Float32bits(want[i]))
		}
	}
	ones := make([]float32, len(pats))
	for i := range ones {
		ones[i] = 1
	}
	got := make([]float32, len(pats))
	eachDispatch(t, func(t *testing.T) {
		check := func(prim string, accumulated bool) {
			for i, w := range want {
				if accumulated {
					w += 0 // the accumulator starts at +0, and -0 + 0 is +0
				}
				if !sameBits(got[i], w) {
					t.Fatalf("%s(%#08x) = %#08x, want %#08x", prim, math.Float32bits(pats[i]), math.Float32bits(got[i]), math.Float32bits(w))
				}
			}
		}
		MustCodec(FP16, 0).RoundInto(got, pats)
		check("RoundInto", false)
		clear(got)
		HalfMulAddRow(got, 1, pats)
		check("HalfMulAddRow", true)
		clear(got)
		HalfMulAddVec(got, pats, ones)
		check("HalfMulAddVec", true)
	})
}

// TestAccumulatorNeverNegativeZero pins the invariant the kernels' zero-
// activation skip rests on: an accumulator that starts at +0 and only ever
// has values added to it never holds -0, whatever is added — -0 itself, a
// value and its negation, the smallest subnormals — because under round-to-
// nearest x + y is -0 only when both x and y are. So "acc += ±0" never
// changes acc, and leaving it out changes no bit.
func TestAccumulatorNeverNegativeZero(t *testing.T) {
	eachDispatch(t, testAccumulatorNeverNegativeZero)
}

func testAccumulatorNeverNegativeZero(t *testing.T) {
	negZero := math.Float32frombits(f32Sign)
	tiny := math.Float32frombits(1) // smallest float32 subnormal
	addends := []float32{0, negZero, tiny, -tiny, 5.9604645e-08, -5.9604645e-08, 1, -1, 65504, -65504,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	// Every sequence of four addends, through plain addition and through each
	// accumulating primitive. The rows are a chunk and a tail wide, every
	// element taking the same sequence, so each lane is held to it as well;
	// the dot form takes the addend first in a row of zeros.
	const width = laneChunk + 1
	ones, vs, dots := make([]float32, width), make([]float32, width), make([]float32, width)
	for i := range ones {
		ones[i] = 1
	}
	n := len(addends)
	for code := 0; code < n*n*n*n; code++ {
		var plain float32
		row, vec := make([]float32, width), make([]float32, width)
		var dot float32
		for c, step := code, 0; step < 4; c, step = c/n, step+1 {
			v := addends[c%n]
			before := plain
			plain += v
			for i := range vs {
				vs[i] = v
			}
			dots[0] = v
			HalfMulAddRow(row, v, ones)
			HalfMulAddVec(vec, vs, ones)
			dot = HalfDot(dot, dots, ones)
			for _, accs := range [][]float32{{plain, dot}, row, vec} {
				for _, acc := range accs {
					if math.Float32bits(acc) == f32Sign {
						t.Fatalf("sequence %d step %d: accumulator is -0 after adding %v", code, step, v)
					}
				}
			}
			if v == 0 && !sameBits(plain, before) {
				t.Fatalf("sequence %d step %d: adding %#08x changed the accumulator from %#08x to %#08x",
					code, step, math.Float32bits(v), math.Float32bits(before), math.Float32bits(plain))
			}
		}
	}
	// A ±0 activation against a finite weight row is a row of ±0 products.
	for _, a := range []float32{0, negZero} {
		acc := []float32{0, 0, 0.5, -0.5, 0, 0, 0.5, -0.5, 0}
		HalfMulAddRow(acc, a, []float32{3, -3, 65504, -5.9604645e-08, -3, 3, -65504, 5.9604645e-08, 1})
		for i, want := range []float32{0, 0, 0.5, -0.5, 0, 0, 0.5, -0.5, 0} {
			if !sameBits(acc[i], want) {
				t.Errorf("%#08x × finite row: acc[%d] = %#08x, want %#08x unchanged",
					math.Float32bits(a), i, math.Float32bits(acc[i]), math.Float32bits(want))
			}
		}
	}
}
