package numerics

import (
	"fmt"
	"math"
)

// Quantizer maps real values to signed fixed-point codes using a symmetric
// affine scheme (zero point 0), matching TensorFlow's symmetric quantization
// that the paper uses to train its INT16/INT8 networks. A Quantizer for n
// bits maps f to clamp(round(f/Scale), -2^(n-1), 2^(n-1)-1).
//
// Build one with NewQuantizer: it also derives the saturation bounds below,
// and a Quantizer assembled from Scale and Bits alone quantizes everything
// to 0 (as the zero Quantizer always has).
type Quantizer struct {
	// Scale is the real value of one least-significant code step.
	Scale float32
	// Bits is the code width: 16 for INT16, 8 for INT8.
	Bits int

	// satLo is the largest real value whose code is the bottom of the code
	// range and satHi the smallest whose code is the top, found once against
	// quantizeRef, so a saturating value — ±Inf included — costs two compares
	// in Quantize and no divide. (Four fields, not more: the compiler keeps a
	// struct this small in registers, and Codec passes it by value per MAC.)
	satLo, satHi float32
}

// NewQuantizer builds a symmetric quantizer covering [-maxAbs, +maxAbs] with
// the given code width. maxAbs must be positive and bits must be 8 or 16.
func NewQuantizer(maxAbs float32, bits int) (Quantizer, error) {
	if maxAbs <= 0 || math.IsNaN(float64(maxAbs)) || math.IsInf(float64(maxAbs), 0) {
		return Quantizer{}, fmt.Errorf("numerics: quantizer range must be positive and finite, got %v", maxAbs)
	}
	if bits != 8 && bits != 16 {
		return Quantizer{}, fmt.Errorf("numerics: quantizer width must be 8 or 16 bits, got %d", bits)
	}
	qmax := float32(int32(1)<<(bits-1)) - 1
	q := Quantizer{Scale: maxAbs / qmax, Bits: bits}
	if q.Scale == 0 { // maxAbs underflowed: every value quantizes to 0
		return q, nil
	}
	// Each bound sits within a few float32 neighbours of half a step inside
	// its end of the code range: walk inward past it, then back out to the
	// first value whose code, by the definition, is that end's.
	edge := func(code int32, f, outward float32) float32 {
		for q.quantizeRef(f) == code {
			f = math.Nextafter32(f, -outward)
		}
		for q.quantizeRef(f) != code {
			f = math.Nextafter32(f, outward)
		}
		return f
	}
	lo, hi := q.qlimits()
	inf := float32(math.Inf(1))
	q.satHi = edge(hi, (float32(hi)-0.5)*q.Scale, inf)
	q.satLo = edge(lo, (float32(lo)+0.5)*q.Scale, -inf)
	return q, nil
}

// MustQuantizer is NewQuantizer for statically known-good parameters.
func MustQuantizer(maxAbs float32, bits int) Quantizer {
	q, err := NewQuantizer(maxAbs, bits)
	if err != nil {
		panic(err)
	}
	return q
}

// ForPrecision builds a quantizer for p (INT16 or INT8) over [-maxAbs, maxAbs].
func ForPrecision(maxAbs float32, p Precision) (Quantizer, error) {
	switch p {
	case INT16, INT8:
		return NewQuantizer(maxAbs, p.Bits())
	default:
		return Quantizer{}, fmt.Errorf("numerics: precision %v is not quantized", p)
	}
}

// qlimits returns the inclusive code range.
func (q Quantizer) qlimits() (lo, hi int32) {
	hi = int32(1)<<(q.Bits-1) - 1
	return -hi - 1, hi
}

// Quantize maps a real value to its code, saturating at the code range. NaN
// quantizes to 0, mirroring hardware converters that flush invalid inputs.
func (q Quantizer) Quantize(f float32) int32 {
	switch {
	case f >= q.satHi || f <= q.satLo:
		return q.saturated(f)
	case f != f:
		return 0
	}
	return int32(float64(f)/float64(q.Scale) + roundMagic - roundMagic)
}

// saturated returns the code of a value at or beyond a saturation bound: an
// end of the code range — or 0 when there is no scale (the zero Quantizer, or
// a maxAbs so small the scale underflowed), whose bounds are both 0 and so
// catch every value.
func (q Quantizer) saturated(f float32) int32 {
	if q.Scale == 0 {
		return 0
	}
	lo, hi := q.qlimits()
	if f > 0 {
		return hi
	}
	return lo
}

// roundMagic is 1.5·2⁵²: float64s this large are whole numbers, so adding it
// makes the adder round a quotient to the nearest integer, ties to even, and
// subtracting it again is exact — math.RoundToEven for any |v| < 2⁵¹, without
// the call math.RoundToEven keeps as its fallback for CPUs lacking SSE4.1,
// which costs the slice loop below its pipelining (3.4× slower, measured).
const roundMagic = 3 << 51

// quantizeRef is Quantize from the definition, with no precomputed state:
// NewQuantizer finds the saturation bounds with it and the tests hold
// Quantize to it.
func (q Quantizer) quantizeRef(f float32) int32 {
	if q.Scale == 0 || math.IsNaN(float64(f)) {
		return 0
	}
	lo, hi := q.qlimits()
	v := float64(f) / float64(q.Scale)
	r := math.RoundToEven(v)
	switch {
	case r < float64(lo):
		return lo
	case r > float64(hi):
		return hi
	default:
		return int32(r)
	}
}

// Dequantize maps a code back to its real value.
func (q Quantizer) Dequantize(code int32) float32 {
	return float32(code) * q.Scale
}

// Round passes f through the quantized encoding and back, modeling a value
// stored in an INT16/INT8 datapath register.
func (q Quantizer) Round(f float32) float32 {
	return q.Dequantize(q.Quantize(f))
}

// roundInto is Round over a slice with the quantizer's constants held in
// registers, a value below floor stored as floor; dst must be at least as long
// as src. Round has no floor (-Inf). Codec.Saturate's is -MaxAbs()-Scale, which
// it returns unrounded and which may sit an ulp off the bottom code's value;
// that is all Saturate adds to Round, its upper clamp being Round's own: MaxAbs
// is the top code's value, so whatever exceeds it is at or past satHi. With
// hasAVX2 the whole chunks of eight go through quantRoundAVX2
// (floatrow_amd64.s): the default case's arithmetic in every lane, the other
// cases blended over it (DESIGN.md §7.1.5).
func (q Quantizer) roundInto(dst, src []float32, floor float32) {
	dst = dst[:len(src)]
	vLo, vHi := q.Dequantize(q.saturated(-1)), q.Dequantize(q.saturated(1))
	n := laneWhole(len(src))
	if n > 0 {
		quantRoundAVX2(dst[:n], src[:n], q.Scale, q.satLo, q.satHi, vLo, vHi, floor)
	}
	q.roundIntoGo(dst[n:], src[n:], floor, vLo, vHi)
}

func (q Quantizer) roundIntoGo(dst, src []float32, floor, vLo, vHi float32) {
	dst = dst[:len(src)]
	scale, scale64 := q.Scale, float64(q.Scale)
	satLo, satHi := q.satLo, q.satHi
	for i, f := range src {
		switch {
		case f >= satHi:
			dst[i] = vHi
		case f <= satLo:
			dst[i] = vLo
			if f < floor { // floor has the bottom code, so it is at or below satLo
				dst[i] = floor
			}
		case f != f:
			dst[i] = 0
		default:
			dst[i] = float32(int32(float64(f)/scale64+roundMagic-roundMagic)) * scale
		}
	}
}

// Encode returns the two's-complement bit pattern of the code for f, masked
// to q.Bits bits. This is the flip-flop content for the stored value.
func (q Quantizer) Encode(f float32) uint32 {
	code := q.Quantize(f)
	mask := uint32(1)<<uint(q.Bits) - 1
	return uint32(code) & mask
}

// Decode interprets a q.Bits-wide two's-complement bit pattern as a real
// value.
func (q Quantizer) Decode(bits uint32) float32 {
	shift := 32 - uint(q.Bits)
	code := int32(bits<<shift) >> shift
	return q.Dequantize(code)
}

// FlipBit returns the real value obtained by flipping bit i of the stored
// encoding of f (bit q.Bits-1 is the sign bit).
func (q Quantizer) FlipBit(f float32, i int) float32 {
	enc := q.Encode(f)
	enc ^= 1 << uint(i%q.Bits)
	return q.Decode(enc)
}

// MaxAbs returns the largest representable magnitude.
func (q Quantizer) MaxAbs() float32 {
	_, hi := q.qlimits()
	return q.Dequantize(hi)
}
