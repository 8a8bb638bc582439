package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for every codec, Decode(Encode(x)) == Round(x), Encode stays
// within the declared bit width, and MulPre on pre-rounded operands equals
// Mul on raw operands.
func TestCodecAlgebraAllPrecisions(t *testing.T) {
	codecs := []Codec{
		MustCodec(FP32, 0),
		MustCodec(FP16, 0),
		MustCodec(INT16, 8),
		MustCodec(INT8, 8),
	}
	rng := rand.New(rand.NewSource(61))
	for _, c := range codecs {
		for i := 0; i < 3000; i++ {
			x := float32(rng.NormFloat64() * 4)
			y := float32(rng.NormFloat64() * 4)

			enc := encodeBits(c, x)
			if c.Bits() < 32 && enc >= 1<<uint(c.Bits()) {
				t.Fatalf("%v: Encode(%v) = %#x exceeds %d bits", c.Precision(), x, enc, c.Bits())
			}
			if got, want := c.Decode(enc), c.Round(x); got != want {
				t.Fatalf("%v: Decode(Encode(%v)) = %v, want %v", c.Precision(), x, got, want)
			}
			if got, want := c.MulPre(c.Round(x), c.Round(y)), c.Mul(x, y); got != want {
				t.Fatalf("%v: MulPre(Round,Round) = %v, Mul = %v", c.Precision(), got, want)
			}
		}
	}
}

// encodeBits is the stored bit pattern of f under c, masked to Bits() bits:
// the inverse the Decode properties are stated against.
func encodeBits(c Codec, f float32) uint32 {
	switch c.prec {
	case FP32:
		return math.Float32bits(f)
	case FP16:
		return uint32(HalfFromFloat32(f))
	default:
		return c.quant.Encode(f)
	}
}

// Property: RoundSlice(x)[i] == Round(x[i]) and input is not mutated.
func TestRoundSliceProperty(t *testing.T) {
	eachDispatch(t, legsOf(false, false), testRoundSliceProperty)
}

func testRoundSliceProperty(t *testing.T) {
	c := MustCodec(FP16, 0)
	f := func(raw []float32) bool {
		in := append([]float32(nil), raw...)
		out := c.RoundSlice(in)
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != raw[i] {
				return false // mutated input
			}
			want := c.Round(raw[i])
			if out[i] != want && !(math.IsNaN(float64(out[i])) && math.IsNaN(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: saturation is idempotent and order-preserving for finite inputs.
func TestSaturateProperties(t *testing.T) {
	for _, c := range []Codec{MustCodec(FP16, 0), MustCodec(INT8, 8)} {
		rng := rand.New(rand.NewSource(62))
		for i := 0; i < 2000; i++ {
			x := float32(rng.NormFloat64() * 1e5)
			y := float32(rng.NormFloat64() * 1e5)
			sx, sy := c.Saturate(x), c.Saturate(y)
			if c.Saturate(sx) != sx {
				t.Fatalf("%v: Saturate not idempotent at %v", c.Precision(), x)
			}
			if x <= y && sx > sy {
				t.Fatalf("%v: Saturate not monotone: %v<=%v but %v>%v", c.Precision(), x, y, sx, sy)
			}
		}
	}
}

// TestSaturateIntoMatchesSaturate holds the row form of the converter to the
// scalar one, bit for bit, in every precision: on all 65 536 halves, on every
// float32 between HalfMax and the first pattern that would round to Inf (the
// clamp must take them before the rounding does), on ±Inf and NaN, on the
// neighbours of each quantizer's two clamps — Saturate returns its lower one
// unrounded, an ulp off the bottom code's value for some scales — written to a
// second slice and over the source, with the lanes off and on.
func TestSaturateIntoMatchesSaturate(t *testing.T) {
	eachDispatch(t, legsOf(false, false), testSaturateIntoMatchesSaturate)
}

func testSaturateIntoMatchesSaturate(t *testing.T) {
	var probes []float32
	for h := 0; h < 1<<16; h++ {
		probes = append(probes, Half(h).Float32())
	}
	for b := uint32(0x477fe000); b <= f32HalfOver; b++ {
		probes = append(probes, math.Float32frombits(b), math.Float32frombits(b|f32Sign))
	}
	probes = append(probes, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32)
	codecs := []Codec{MustCodec(FP32, 0), MustCodec(FP16, 0)}
	for _, maxAbs := range []float32{1e-44, 3e-5, 0.37, 1, 4, 8, 127, 1000.5, 3e38} {
		codecs = append(codecs, MustCodec(INT8, maxAbs), MustCodec(INT16, maxAbs))
	}
	for _, c := range codecs {
		in := probes
		if q := c.quant; q.Bits != 0 {
			in = append([]float32(nil), probes...)
			for _, edge := range []float32{q.MaxAbs(), -q.MaxAbs() - q.Scale, q.satHi, q.satLo} {
				up, down := edge, edge
				for i := 0; i < 8; i++ {
					up, down = math.Nextafter32(up, float32(math.Inf(1))), math.Nextafter32(down, float32(math.Inf(-1)))
					in = append(in, up, down)
				}
				in = append(in, edge)
			}
		}
		out := make([]float32, len(in))
		c.SaturateInto(out, in)
		inPlace := append([]float32(nil), in...)
		c.SaturateInto(inPlace, inPlace)
		for i, f := range in {
			want := c.Saturate(f)
			if !sameBits(out[i], want) || !sameBits(inPlace[i], want) {
				t.Fatalf("%v scale=%v: SaturateInto(%v [%#08x]) = %#08x (%#08x in place), Saturate gives %#08x", c.Precision(),
					c.quant.Scale, f, math.Float32bits(f), math.Float32bits(out[i]), math.Float32bits(inPlace[i]), math.Float32bits(want))
			}
		}
	}
}

// Property: a single-bit flip never yields the same stored encoding.
func TestFlipBitAlwaysChangesEncoding(t *testing.T) {
	for _, c := range []Codec{MustCodec(FP16, 0), MustCodec(INT16, 8), MustCodec(INT8, 8)} {
		for code := uint32(0); code < 1<<c.Bits(); code++ {
			// Any FP16 NaN reads back as the canonical one: its payload is not kept.
			for bit, x := 0, c.Decode(code); bit < c.Bits() && x == x; bit++ {
				if encodeBits(c, c.FlipBit(x, bit)) == encodeBits(c, x) {
					t.Fatalf("%v: flip of bit %d left encoding of %v unchanged", c.Precision(), bit, x)
				}
			}
		}
	}
}
