package numerics

import (
	"fmt"
	"math"
)

// Codec encapsulates the storage encoding of one datapath precision so that
// fault models can flip bits of a stored value without caring which format
// the accelerator is configured for. For quantized precisions the codec
// carries the layer's calibrated quantizer.
type Codec struct {
	prec  Precision
	quant Quantizer // valid when prec is INT16/INT8
}

// NewCodec builds a codec for p. maxAbs calibrates the quantizer range for
// INT16/INT8 and is ignored for floating-point precisions.
func NewCodec(p Precision, maxAbs float32) (Codec, error) {
	c := Codec{prec: p}
	switch p {
	case FP32, FP16:
		return c, nil
	case INT16, INT8:
		q, err := ForPrecision(maxAbs, p)
		if err != nil {
			return Codec{}, err
		}
		c.quant = q
		return c, nil
	default:
		return Codec{}, fmt.Errorf("numerics: unsupported precision %v", p)
	}
}

// MustCodec is NewCodec for statically known-good parameters.
func MustCodec(p Precision, maxAbs float32) Codec {
	c, err := NewCodec(p, maxAbs)
	if err != nil {
		panic(err)
	}
	return c
}

// Precision returns the codec's precision.
func (c Codec) Precision() Precision { return c.prec }

// Bits returns the stored width of one value.
func (c Codec) Bits() int { return c.prec.Bits() }

// Round stores f in the codec's format and reads it back, i.e. the value as
// observed after passing through one datapath register of this precision.
func (c Codec) Round(f float32) float32 {
	switch c.prec {
	case FP32:
		return f
	case FP16:
		return RoundHalf(f)
	default:
		return c.quant.Round(f)
	}
}

// FlipBit returns the value read back after flipping bit i of the stored
// encoding of f. Bit 0 is the LSB; bit Bits()-1 is the sign bit.
func (c Codec) FlipBit(f float32, i int) float32 {
	switch c.prec {
	case FP32:
		return math.Float32frombits(math.Float32bits(f) ^ 1<<uint(i&31))
	case FP16:
		return HalfFromFloat32(f).FlipBit(i).Float32()
	default:
		return c.quant.FlipBit(f, i)
	}
}

// Decode interprets a stored bit pattern as a real value.
func (c Codec) Decode(bits uint32) float32 {
	switch c.prec {
	case FP32:
		return math.Float32frombits(bits)
	case FP16:
		return Half(bits & 0xffff).Float32()
	default:
		return c.quant.Decode(bits)
	}
}

// Mul multiplies a and b as the configured multiplier hardware would.
func (c Codec) Mul(a, b float32) float32 {
	switch c.prec {
	case FP32:
		return a * b
	case FP16:
		return HalfMul(a, b)
	default:
		// Fixed-point multipliers produce a double-width exact product that
		// is accumulated at higher precision; no rounding at the multiplier.
		return c.quant.Round(a) * c.quant.Round(b)
	}
}

// MulPre multiplies two operands that are already stored in the codec's
// format (i.e. Round has been applied), skipping the operand rounding that
// Mul performs. MulPre(Round(a), Round(b)) == Mul(a, b) for every codec;
// layer fast paths pre-round their operand buffers once and use MulPre in
// the inner loop.
func (c Codec) MulPre(a, b float32) float32 {
	if c.prec == FP16 {
		return RoundHalf(a * b)
	}
	return a * b
}

// RoundSlice returns a copy of data with every element passed through the
// codec's storage rounding.
func (c Codec) RoundSlice(data []float32) []float32 {
	out := make([]float32, len(data))
	c.RoundInto(out, data)
	return out
}

// RoundInto stores Round(src[i]) in dst[i] for every i in src, one loop per
// precision. dst must be at least as long as src.
func (c Codec) RoundInto(dst, src []float32) {
	dst = dst[:len(src)]
	switch c.prec {
	case FP32:
		copy(dst, src)
	case FP16:
		halfRoundInto(dst, src)
	default:
		c.quant.roundInto(dst, src, float32(math.Inf(-1)))
	}
}

// Saturate clamps f to the representable range of the codec, modeling the
// converter at the accumulator output. Floating-point codecs clamp to the
// FP16 range (overflow becomes ±Inf in real FP16 hardware, but NVDLA's SDP
// converter saturates; we saturate to keep outputs finite and comparable).
func (c Codec) Saturate(f float32) float32 {
	switch c.prec {
	case FP32:
		return f
	case FP16:
		const halfMax = 65504 // HalfMax.Float32(), without decoding it per output
		if f > halfMax {
			return halfMax
		}
		if f < -halfMax {
			return -halfMax
		}
		return RoundHalf(f)
	default:
		m := c.quant.MaxAbs()
		if f > m {
			return m
		}
		if f < -m-c.quant.Scale {
			return -m - c.quant.Scale
		}
		return c.quant.Round(f)
	}
}

// SaturateInto stores Saturate(src[i]) in dst[i] for every i in src, one loop
// per precision: the converter over a whole output row. dst must be at least
// as long as src and may be src itself.
func (c Codec) SaturateInto(dst, src []float32) {
	dst = dst[:len(src)]
	switch c.prec {
	case FP32:
		copy(dst, src)
	case FP16:
		// Saturate's two compares as one clip, NaN passing through, then the
		// rounding over the whole row: RoundHalf(±65504) is ±65504 (DESIGN.md
		// §7.1.5).
		const halfMax = 65504
		ClipRow(dst, src, -halfMax, halfMax)
		halfRoundInto(dst, dst)
	default:
		c.quant.roundInto(dst, src, -c.quant.MaxAbs()-c.quant.Scale)
	}
}
