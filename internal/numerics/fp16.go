// Package numerics provides the bit-accurate number formats used by the
// simulated accelerator datapath: IEEE-754 binary16 ("half") floating point
// and affine-quantized INT16/INT8 fixed point.
//
// Fault injection operates on the *stored encoding* of a value (the bits that
// would actually sit in a hardware flip-flop), so every format exposes its
// encoding and a bit-flip primitive. This is the property that distinguishes
// FIdelity-style injection from naive "perturb a float64" injection: an
// exponent-bit flip in FP16 and a sign-bit flip in INT8 have very different
// perturbation distributions, and those distributions drive the paper's key
// results (4) and (5).
package numerics

import "math"

// Half is an IEEE-754 binary16 value stored in its 16-bit encoding:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Half uint16

// Canonical Half constants.
const (
	HalfPosInf  Half = 0x7c00
	HalfNegInf  Half = 0xfc00
	HalfNaN     Half = 0x7e00
	HalfZero    Half = 0x0000
	HalfNegZero Half = 0x8000
	HalfMax     Half = 0x7bff // 65504
	HalfMin     Half = 0xfbff // -65504

	halfExpBias  = 15
	halfExpMask  = 0x7c00
	halfManMask  = 0x03ff
	halfSignMask = 0x8000
)

// HalfFromFloat32 converts f to the nearest Half using round-to-nearest-even,
// the rounding mode used by NVDLA's FP16 datapath. Values whose magnitude
// exceeds the Half range become infinities; NaN payloads are canonicalized.
func HalfFromFloat32(f float32) Half {
	b := math.Float32bits(f)
	sign := Half(b>>16) & halfSignMask
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if man != 0 {
			return sign | HalfNaN
		}
		return sign | HalfPosInf
	case exp == 0 && man == 0: // signed zero
		return sign
	}

	// Unbiased exponent of the float32 value.
	e := exp - 127
	switch {
	case e > 15: // overflow to infinity
		return sign | HalfPosInf
	case e >= -14: // normal half range
		// 10-bit mantissa with round-to-nearest-even on the truncated 13 bits.
		he := uint32(e+halfExpBias) << 10
		hm := man >> 13
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && hm&1 == 1) {
			hm++
			if hm == 0x400 { // mantissa carry: bump exponent
				hm = 0
				he += 1 << 10
				if he >= halfExpMask {
					return sign | HalfPosInf
				}
			}
		}
		return sign | Half(he) | Half(hm)
	case e >= -24: // subnormal half range
		// Implicit leading 1 becomes explicit; shift right by (-14 - e).
		m := man | 0x800000
		shift := uint32(-14 - e + 13)
		hm := m >> shift
		rem := m & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && hm&1 == 1) {
			hm++ // may carry into the normal range, which is fine: 0x0400 == smallest normal
		}
		return sign | Half(hm)
	default: // underflow to signed zero
		return sign
	}
}

// Float32 converts h to float32 exactly (every Half is representable).
func (h Half) Float32() float32 {
	sign := uint32(h&halfSignMask) << 16
	exp := uint32(h&halfExpMask) >> 10
	man := uint32(h & halfManMask)

	switch {
	case exp == 0x1f: // Inf/NaN
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 14)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= halfManMask
		return math.Float32frombits(sign | e<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp-halfExpBias+127)<<23 | man<<13)
	}
}

// FlipBit returns h with bit i (0 = LSB of the mantissa, 15 = sign) inverted.
// This is the single-FF single-cycle bit-flip abstraction applied to a value
// stored in an FP16 datapath register.
func (h Half) FlipBit(i int) Half {
	return h ^ (1 << uint(i&0xf))
}

// RoundHalf rounds f through the Half encoding and back, modeling a value
// passing through an FP16 register or functional-unit output.
//
// A float32 in the normal half range is rounded with integer arithmetic on
// its bit pattern, the half-subnormal band with one float32 add and subtract,
// and only overflow, Inf and NaN take the encode/decode round trip;
// halfrow.go derives the bands. RoundHalfRef proves the paths agree
// bit-for-bit; TestRoundHalfFastPath sweeps the boundary cases.
func RoundHalf(f float32) float32 {
	b := math.Float32bits(f)
	abs := b &^ f32Sign
	switch {
	case abs-f32HalfNormal < f32HalfOver-f32HalfNormal:
		return math.Float32frombits((b + 0x0fff + (b >> 13 & 1)) &^ 0x1fff)
	case abs < f32HalfNormal:
		return halfRoundSmall(b, abs)
	default:
		return RoundHalfRef(f)
	}
}

// RoundHalfRef is the reference implementation of RoundHalf via a full
// encode/decode round trip. It exists so tests can prove the fast path
// bit-exact and so the reference (pre-tiling) kernels measure the historical
// baseline cost honestly.
func RoundHalfRef(f float32) float32 {
	return HalfFromFloat32(f).Float32()
}

// HalfMul multiplies two float32 values as an FP16 multiplier would: operands
// are rounded to half, multiplied exactly in float32 (an FP16×FP16 product
// fits), and the product rounded back to half precision.
func HalfMul(a, b float32) float32 {
	return RoundHalf(RoundHalf(a) * RoundHalf(b))
}
