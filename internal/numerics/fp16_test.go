package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHalfSpecialValues(t *testing.T) {
	cases := []struct {
		name string
		h    Half
		want float32
	}{
		{"zero", HalfZero, 0},
		{"one", 0x3c00, 1},
		{"negTwo", 0xc000, -2},
		{"max", HalfMax, 65504},
		{"min", HalfMin, -65504},
		{"smallestSubnormal", 0x0001, 5.9604645e-08},
		{"largestSubnormal", 0x03ff, 6.097555e-05},
		{"smallestNormal", 0x0400, 6.1035156e-05},
		{"half", 0x3800, 0.5},
		{"third", 0x3555, 0.33325195},
	}
	for _, c := range cases {
		if got := c.h.Float32(); got != c.want {
			t.Errorf("%s: Half(%#04x).Float32() = %v, want %v", c.name, uint16(c.h), got, c.want)
		}
	}
}

func TestHalfFromFloat32Exact(t *testing.T) {
	cases := []struct {
		f    float32
		want Half
	}{
		{0, HalfZero},
		{float32(math.Copysign(0, -1)), HalfNegZero},
		{1, 0x3c00},
		{-1, 0xbc00},
		{65504, HalfMax},
		{-65504, HalfMin},
		{0.5, 0x3800},
		{2, 0x4000},
		{1024, 0x6400},
	}
	for _, c := range cases {
		if got := HalfFromFloat32(c.f); got != c.want {
			t.Errorf("HalfFromFloat32(%v) = %#04x, want %#04x", c.f, uint16(got), uint16(c.want))
		}
	}
}

func TestHalfOverflowToInf(t *testing.T) {
	if got := HalfFromFloat32(65520); got != HalfPosInf {
		// 65520 rounds to 65536 which overflows half range.
		t.Errorf("HalfFromFloat32(65520) = %#04x, want +Inf", uint16(got))
	}
	if got := HalfFromFloat32(-1e9); got != HalfNegInf {
		t.Errorf("HalfFromFloat32(-1e9) = %#04x, want -Inf", uint16(got))
	}
	if got := HalfFromFloat32(float32(math.Inf(1))); got != HalfPosInf {
		t.Errorf("HalfFromFloat32(+Inf) = %#04x, want +Inf", uint16(got))
	}
}

// halfIsNaN classifies an encoding from its fields, independently of Float32.
func halfIsNaN(h Half) bool {
	return h&halfExpMask == halfExpMask && h&halfManMask != 0
}

func TestHalfNaN(t *testing.T) {
	h := HalfFromFloat32(float32(math.NaN()))
	if !halfIsNaN(h) {
		t.Fatalf("HalfFromFloat32(NaN) = %#04x, not NaN", uint16(h))
	}
	if f := h.Float32(); !math.IsNaN(float64(f)) {
		t.Errorf("NaN half decodes to %v, want NaN", f)
	}
	if f := HalfPosInf.Float32(); !math.IsInf(float64(f), 1) {
		t.Errorf("+Inf half decodes to %v", f)
	}
}

func TestHalfUnderflowToZero(t *testing.T) {
	if got := HalfFromFloat32(1e-10); got != HalfZero {
		t.Errorf("HalfFromFloat32(1e-10) = %#04x, want +0", uint16(got))
	}
	if got := HalfFromFloat32(-1e-10); got != HalfNegZero {
		t.Errorf("HalfFromFloat32(-1e-10) = %#04x, want -0", uint16(got))
	}
}

func TestHalfRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next half (1+2^-10);
	// ties go to even mantissa, i.e. down to 1.0.
	f := float32(1) + float32(math.Exp2(-11))
	if got := HalfFromFloat32(f); got != 0x3c00 {
		t.Errorf("tie rounding of 1+2^-11: got %#04x, want 0x3c00", uint16(got))
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; tie goes up to even.
	f = float32(1) + 3*float32(math.Exp2(-11))
	if got := HalfFromFloat32(f); got != 0x3c02 {
		t.Errorf("tie rounding of 1+3*2^-11: got %#04x, want 0x3c02", uint16(got))
	}
}

// Property: decoding any Half and re-encoding is the identity for all 65536
// encodings except NaN payload canonicalization.
func TestHalfRoundTripAllEncodings(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Half(i)
		if halfIsNaN(h) {
			if !halfIsNaN(HalfFromFloat32(h.Float32())) {
				t.Fatalf("NaN %#04x did not survive round trip", i)
			}
			continue
		}
		got := HalfFromFloat32(h.Float32())
		if got != h {
			t.Fatalf("round trip %#04x -> %v -> %#04x", i, h.Float32(), uint16(got))
		}
	}
}

// Property: RoundHalf is idempotent.
func TestRoundHalfIdempotent(t *testing.T) {
	f := func(x float32) bool {
		r := RoundHalf(x)
		if math.IsNaN(float64(r)) {
			return math.IsNaN(float64(RoundHalf(r)))
		}
		return RoundHalf(r) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: rounding error of a value in normal half range is within half an
// ULP of the value's magnitude.
func TestRoundHalfErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := float32(rng.NormFloat64()) * 100
		r := RoundHalf(x)
		ulp := math.Abs(float64(x)) * math.Exp2(-10)
		if math.Abs(float64(r-x)) > ulp/2+1e-12 {
			t.Fatalf("RoundHalf(%v) = %v, error %v exceeds half ULP %v", x, r, r-x, ulp/2)
		}
	}
}

// Property: a single bit flip always changes the encoded value, and flipping
// the same bit twice restores it.
func TestHalfFlipBitInvolution(t *testing.T) {
	for code := 0; code < 1<<16; code++ {
		for bit := 0; bit < 16; bit++ {
			h := Half(code)
			flipped := h.FlipBit(bit)
			if flipped == h {
				t.Fatalf("FlipBit(%d) left %#04x unchanged", bit, uint16(h))
			}
			if back := flipped.FlipBit(bit); back != h {
				t.Fatalf("double flip of bit %d: %#04x -> %#04x -> %#04x", bit, uint16(h), uint16(flipped), uint16(back))
			}
		}
	}
}

func TestHalfSignBitFlip(t *testing.T) {
	h := HalfFromFloat32(3.5)
	if got := h.FlipBit(15).Float32(); got != -3.5 {
		t.Errorf("sign flip of 3.5 = %v, want -3.5", got)
	}
}

// Exponent-bit flips produce large multiplicative perturbations — the
// mechanism behind the paper's Key Result 5.
func TestHalfExponentFlipMagnitude(t *testing.T) {
	h := HalfFromFloat32(1.0) // 0x3c00, exponent 15
	// Flipping the top exponent bit (bit 14) takes exponent 15 -> 31: Inf... no,
	// 0x3c00 ^ 0x4000 = 0x7c00 which is +Inf.
	if f := h.FlipBit(14); f != HalfPosInf {
		t.Errorf("flip bit 14 of 1.0 = %#04x, want +Inf", uint16(f))
	}
	// Flipping exponent bit 10 takes the biased exponent 15 -> 14, i.e. 0.5.
	if got := h.FlipBit(10).Float32(); got != 0.5 {
		t.Errorf("flip bit 10 of 1.0 = %v, want 0.5", got)
	}
	// For 2.0 (biased exponent 16 = 0b10000), flipping bit 10 gives 4.0.
	if got := HalfFromFloat32(2).FlipBit(10).Float32(); got != 4.0 {
		t.Errorf("flip bit 10 of 2.0 = %v, want 4.0", got)
	}
}

func TestHalfMulAdd(t *testing.T) {
	if got := HalfMul(3, 4); got != 12 {
		t.Errorf("HalfMul(3,4) = %v", got)
	}
	// Product rounding: 0.33325195 (closest half to 1/3) squared.
	third := RoundHalf(1.0 / 3.0)
	got := HalfMul(third, third)
	want := RoundHalf(third * third)
	if got != want {
		t.Errorf("HalfMul rounding: got %v want %v", got, want)
	}
}

func TestPrecisionStringAndBits(t *testing.T) {
	cases := []struct {
		p    Precision
		s    string
		bits int
	}{
		{FP32, "FP32", 32}, {FP16, "FP16", 16}, {INT16, "INT16", 16}, {INT8, "INT8", 8},
	}
	for _, c := range cases {
		if c.p.String() != c.s || c.p.Bits() != c.bits {
			t.Errorf("%v: got (%s,%d), want (%s,%d)", c.p, c.p.String(), c.p.Bits(), c.s, c.bits)
		}
	}
	if Precision(99).Bits() != 0 {
		t.Error("unknown precision should have 0 bits")
	}
}

func TestParsePrecision(t *testing.T) {
	for _, s := range []string{"fp32", "fp16", "int16", "int8", "FP16", "INT8"} {
		if _, err := ParsePrecision(s); err != nil {
			t.Errorf("ParsePrecision(%q) failed: %v", s, err)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Error("ParsePrecision(bf16) should fail")
	}
}

// TestRoundHalfFastPath proves the integer fast path of RoundHalf bit-exact
// against the reference encode/decode round trip. The sweep covers every half
// encoding, every float32 exponent with the mantissa patterns that straddle
// the round-to-nearest-even boundaries, and a large random sample.
func TestRoundHalfFastPath(t *testing.T) {
	check := func(f float32) {
		got, want := RoundHalf(f), RoundHalfRef(f)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("RoundHalf(%v [%#08x]) = %v [%#08x], want %v [%#08x]",
				f, math.Float32bits(f), got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	// Every exact half value, both signs.
	for h := 0; h <= 0xffff; h++ {
		check(Half(h).Float32())
	}
	// Every float32 exponent × rounding-boundary mantissa patterns. The low 13
	// bits are what RNE discards; 0x1000 is the tie, 0x0fff/0x1001 bracket it,
	// and all-ones mantissas exercise the carry into the exponent.
	mans := []uint32{0x000000, 0x000001, 0x000fff, 0x001000, 0x001001,
		0x001fff, 0x002000, 0x003000, 0x7fe000, 0x7fefff, 0x7ff000, 0x7fffff}
	for exp := uint32(0); exp <= 0xff; exp++ {
		for _, man := range mans {
			bits := exp<<23 | man
			check(math.Float32frombits(bits))
			check(math.Float32frombits(bits | 0x80000000))
		}
	}
	// The overflow boundary around HalfMax (65504): values in (65504, 65520)
	// round down, 65520 and above round to +Inf.
	for _, f := range []float32{65503.9, 65504, 65504.01, 65519.996, 65520, 65521, 65535, 65536, 70000} {
		check(f)
		check(-f)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2_000_000; i++ {
		check(math.Float32frombits(rng.Uint32()))
	}
}
