package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(0, 8); err == nil {
		t.Error("zero range should fail")
	}
	if _, err := NewQuantizer(-1, 8); err == nil {
		t.Error("negative range should fail")
	}
	if _, err := NewQuantizer(1, 12); err == nil {
		t.Error("12-bit width should fail")
	}
	if _, err := NewQuantizer(float32(math.NaN()), 8); err == nil {
		t.Error("NaN range should fail")
	}
	if _, err := NewQuantizer(1, 8); err != nil {
		t.Errorf("valid quantizer failed: %v", err)
	}
}

func TestQuantizeBasics(t *testing.T) {
	q := MustQuantizer(127, 8) // scale = 1.0
	cases := []struct {
		f    float32
		want int32
	}{
		{0, 0}, {1, 1}, {-1, -1}, {126.4, 126}, {127, 127},
		{1000, 127}, {-1000, -128}, {0.4, 0}, {0.6, 1}, {-0.6, -1},
	}
	for _, c := range cases {
		if got := q.Quantize(c.f); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestQuantizeNaN(t *testing.T) {
	q := MustQuantizer(10, 16)
	if got := q.Quantize(float32(math.NaN())); got != 0 {
		t.Errorf("Quantize(NaN) = %d, want 0", got)
	}
}

func TestQuantizerSaturation(t *testing.T) {
	q := MustQuantizer(1, 8)
	if got := q.Quantize(float32(math.Inf(1))); got != 127 {
		t.Errorf("Quantize(+Inf) = %d, want 127", got)
	}
	if got := q.Quantize(float32(math.Inf(-1))); got != -128 {
		t.Errorf("Quantize(-Inf) = %d, want -128", got)
	}
}

// Property: Round is idempotent and the error of a value inside the range is
// at most half a scale step.
func TestQuantizerRoundProperties(t *testing.T) {
	q := MustQuantizer(8, 16)
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		r := q.Round(x)
		if q.Round(r) != r {
			return false
		}
		if x >= -q.MaxAbs() && x <= q.MaxAbs() {
			return math.Abs(float64(r-x)) <= float64(q.Scale)/2+1e-7
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: Quantize is monotone non-decreasing.
func TestQuantizeMonotone(t *testing.T) {
	q := MustQuantizer(5, 8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		a := float32(rng.NormFloat64() * 4)
		b := float32(rng.NormFloat64() * 4)
		if a > b {
			a, b = b, a
		}
		if q.Quantize(a) > q.Quantize(b) {
			t.Fatalf("monotonicity violated: Q(%v)=%d > Q(%v)=%d", a, q.Quantize(a), b, q.Quantize(b))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, bits := range []int{8, 16} {
		q := MustQuantizer(4, bits)
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 2000; i++ {
			x := float32(rng.NormFloat64() * 3)
			enc := q.Encode(x)
			if enc >= 1<<uint(bits) {
				t.Fatalf("%d-bit encode of %v = %#x exceeds width", bits, x, enc)
			}
			if got := q.Decode(enc); got != q.Round(x) {
				t.Fatalf("%d-bit decode(encode(%v)) = %v, want %v", bits, x, got, q.Round(x))
			}
		}
	}
}

func TestQuantizerSignBitFlip(t *testing.T) {
	q := MustQuantizer(127, 8) // scale 1
	// Code 3 = 0b00000011; flipping bit 7 gives 0b10000011 = -125.
	if got := q.FlipBit(3, 7); got != -125 {
		t.Errorf("sign-bit flip of 3 = %v, want -125", got)
	}
	// LSB flip of 3 gives 2.
	if got := q.FlipBit(3, 0); got != 2 {
		t.Errorf("LSB flip of 3 = %v, want 2", got)
	}
}

// Property: flipping the same bit twice restores the rounded value.
func TestQuantizerFlipInvolution(t *testing.T) {
	q := MustQuantizer(6, 16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		x := q.Round(float32(rng.NormFloat64() * 2))
		bit := rng.Intn(16)
		y := q.FlipBit(x, bit)
		if back := q.FlipBit(y, bit); back != x {
			t.Fatalf("double flip of bit %d: %v -> %v -> %v", bit, x, y, back)
		}
	}
}

// INT8's coarser scale means the same bit position flips a larger real
// perturbation than INT16 with the same calibration — the mechanism the
// paper hypothesizes for Key Result 4 (INT8 FIT > INT16 FIT).
func TestInt8PerturbationLargerThanInt16(t *testing.T) {
	q8 := MustQuantizer(8, 8)
	q16 := MustQuantizer(8, 16)
	x := float32(1.0)
	d8 := math.Abs(float64(q8.FlipBit(x, 2) - q8.Round(x)))
	d16 := math.Abs(float64(q16.FlipBit(x, 2) - q16.Round(x)))
	if d8 <= d16 {
		t.Errorf("INT8 perturbation %v should exceed INT16 perturbation %v at same bit", d8, d16)
	}
}

func TestCodecRoundDispatch(t *testing.T) {
	c32 := MustCodec(FP32, 0)
	if c32.Round(1.23456789) != 1.23456789 {
		t.Error("FP32 codec must be exact")
	}
	c16 := MustCodec(FP16, 0)
	if c16.Round(1.0/3.0) != RoundHalf(1.0/3.0) {
		t.Error("FP16 codec should round to half")
	}
	ci8 := MustCodec(INT8, 4)
	if ci8.Round(0.5) != ci8.quant.Round(0.5) {
		t.Error("INT8 codec should use quantizer rounding")
	}
	if _, err := NewCodec(Precision(42), 1); err == nil {
		t.Error("unknown precision should fail")
	}
	if _, err := NewCodec(INT8, -1); err == nil {
		t.Error("bad quantizer range should fail")
	}
}

func TestCodecFlipBitMatchesFormat(t *testing.T) {
	c := MustCodec(FP16, 0)
	if got, want := c.FlipBit(3.5, 15), float32(-3.5); got != want {
		t.Errorf("FP16 codec sign flip = %v, want %v", got, want)
	}
	ci := MustCodec(INT8, 127)
	if got := ci.FlipBit(3, 0); got != 2 {
		t.Errorf("INT8 codec LSB flip of 3 = %v, want 2", got)
	}
	cf := MustCodec(FP32, 0)
	if got := cf.FlipBit(1.0, 31); got != -1.0 {
		t.Errorf("FP32 codec sign flip = %v, want -1", got)
	}
}

func TestCodecEncodeDecode(t *testing.T) {
	for _, p := range []Precision{FP32, FP16, INT16, INT8} {
		c := MustCodec(p, 8)
		x := c.Round(2.5)
		if got := c.Decode(encodeBits(c, x)); got != x {
			t.Errorf("%v: decode(encode(%v)) = %v", p, x, got)
		}
	}
}

func TestCodecSaturate(t *testing.T) {
	c := MustCodec(FP16, 0)
	if got := c.Saturate(1e9); got != HalfMax.Float32() {
		t.Errorf("FP16 saturate(1e9) = %v, want %v", got, HalfMax.Float32())
	}
	if got := c.Saturate(-1e9); got != HalfMin.Float32() {
		t.Errorf("FP16 saturate(-1e9) = %v", got)
	}
	ci := MustCodec(INT8, 127)
	if got := ci.Saturate(500); got != 127 {
		t.Errorf("INT8 saturate(500) = %v, want 127", got)
	}
	if got := ci.Saturate(-500); got != -128 {
		t.Errorf("INT8 saturate(-500) = %v, want -128", got)
	}
	cf := MustCodec(FP32, 0)
	if got := cf.Saturate(1e30); got != 1e30 {
		t.Errorf("FP32 saturate should be identity, got %v", got)
	}
}

func TestCodecMul(t *testing.T) {
	c := MustCodec(INT16, 16)
	got := c.Mul(1.5, 2.0)
	want := c.quant.Round(1.5) * c.quant.Round(2.0)
	if got != want {
		t.Errorf("INT16 Mul = %v, want %v", got, want)
	}
	if MustCodec(FP32, 0).Mul(3, 4) != 12 {
		t.Error("FP32 Mul exact")
	}
}

func TestForPrecisionRejectsFloat(t *testing.T) {
	if _, err := ForPrecision(1, FP16); err == nil {
		t.Error("ForPrecision(FP16) should fail")
	}
}

// TestQuantizeMatchesDefinition holds Quantize — precomputed saturation
// bounds, magic-number rounding — and the INT slice loop of RoundInto to
// quantizeRef, the definition, on every float32 within 8 neighbours of every
// code boundary, on the special values, and on random bit patterns, across
// scales from one that underflows to one near the float32 limit.
func TestQuantizeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, maxAbs := range []float32{1e-44, 1e-38, 3e-5, 0.37, 1, 8, 127, 1000.5, 3e38} {
		for _, p := range []Precision{INT8, INT16} {
			c := MustCodec(p, maxAbs)
			q := c.quant
			var probes []float32
			lo, hi := q.qlimits()
			for code := lo - 1; code <= hi+1; code++ {
				f := (float32(code) + 0.5) * q.Scale
				up, down := f, f
				for i := 0; i < 8; i++ {
					up, down = math.Nextafter32(up, float32(math.Inf(1))), math.Nextafter32(down, float32(math.Inf(-1)))
					probes = append(probes, up, down)
				}
				probes = append(probes, f, float32(code)*q.Scale)
			}
			probes = append(probes, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
				float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32)
			for i := 0; i < 20000; i++ {
				probes = append(probes, math.Float32frombits(rng.Uint32()), float32(rng.NormFloat64())*maxAbs)
			}
			rounded := c.RoundSlice(probes)
			for i, f := range probes {
				want := q.quantizeRef(f)
				if got := q.Quantize(f); got != want {
					t.Fatalf("%v maxAbs=%v: Quantize(%v [%#08x]) = %d, definition gives %d", p, maxAbs, f, math.Float32bits(f), got, want)
				}
				if wantF := q.Dequantize(want); math.Float32bits(rounded[i]) != math.Float32bits(wantF) {
					t.Fatalf("%v maxAbs=%v: RoundSlice(%v [%#08x]) = %v, definition gives %v", p, maxAbs, f, math.Float32bits(f), rounded[i], wantF)
				}
			}
		}
	}
	// The zero Quantizer (the one a floating-point Codec carries) still
	// quantizes everything to 0.
	var zero Quantizer
	for _, f := range []float32{0, 1, -1, float32(math.Inf(1)), float32(math.NaN())} {
		if got := zero.Round(f); math.Float32bits(got) != 0 {
			t.Errorf("zero Quantizer: Round(%v) = %v, want +0", f, got)
		}
	}
}
