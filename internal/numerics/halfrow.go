package numerics

// halfrow.go holds the fused FP16 multiply-round-accumulate row primitives
// behind the nn kernels' inner loops. Each one is a loop over
//
//	acc += RoundHalf(a * w)
//
// with the rounding written out as integer arithmetic on the product's bit
// pattern instead of a call per MAC (RoundHalf is past the inliner's budget).
// A float32 product p = a·w falls in one of four bands by magnitude:
//
//   - normal half, |p| ∈ [2⁻¹⁴, 65520): round-to-nearest-even on the 13
//     mantissa bits a half drops is "add 0x0fff plus the keep-bit, clear the
//     low 13 bits" on the bit pattern, the mantissa carry rippling into the
//     exponent field for free. The band stops at 0x477ff000 — the first
//     pattern that rounds past HalfMax — so no overflow test is needed inside
//     it.
//   - half subnormal, |p| ∈ [2⁻²⁴, 2⁻¹⁴): the result is a multiple of 2⁻²⁴.
//     Floats in [0.5, 1) are exactly the multiples of 2⁻²⁴ there, so
//     (|p| + 0.5) − 0.5 lets the float32 adder do the round-to-nearest-even:
//     0.5 is an even multiple, so a tie lands on the even multiple of 2⁻²⁴
//     just as HalfFromFloat32's shifted-mantissa tie does, and the subtraction
//     is exact.
//   - underflow, |p| < 2⁻²⁴ (float32 subnormals and ±0 included):
//     HalfFromFloat32 flushes everything below its smallest subnormal to a
//     signed zero — also (2⁻²⁵, 2⁻²⁴), which nearest-even would round up.
//     The primitives reproduce that, not IEEE.
//   - everything else (overflow, ±Inf, NaN) is rare and takes the reference
//     encode/decode round trip.
//
// On an amd64 CPU with AVX2 and F16C the first three bands run eight lanes at a
// time in halfrow_amd64.s, through the hardware converter and a mask for the
// underflow band; the loops below stay the only implementation of the rare
// band and of every tail, the whole implementation everywhere else, and the
// reference the lanes are tested against (DESIGN.md §7.3; laneChunk and
// HalfMulAddPanel say how the rare band gets back to them).
//
// TestHalfRowMatchesRef proves every primitive equal to RoundHalfRef bit for
// bit over all 65 536 half values times a multiplier set, and over every
// float32 pattern around the band edges, with the lanes on and off. `make bce`
// keeps the loops free of bounds checks.

import "math"

// Bit patterns of the band edges above, on |p|.
const (
	f32HalfTiny   = 0x33800000 // 2⁻²⁴, the smallest half subnormal
	f32HalfNormal = 0x38800000 // 2⁻¹⁴, the smallest normal half
	f32HalfOver   = 0x477ff000 // first pattern that rounds past HalfMax
	f32Sign       = 0x80000000
)

// laneChunk is how many elements one step of the AVX2 routines takes. The row,
// element-wise, dot and rounding routines do whole chunks from the front of
// their operands and return how many elements they finished: every whole
// chunk, or fewer when they stopped before a chunk with a lane in the rare
// band. The primitive's Go loop — the one implementation of that band — then
// does that chunk and the lanes resume behind it, so a faulty tensor full of
// Inf and NaN runs at the Go loop's speed, not to different bits; the Go loop
// also does every tail. The panel returns no position: it takes one column
// block a call and says whether it stored it (HalfMulAddPanel).
const laneChunk = 8

// halfRoundSmall rounds a product with |p| < 2⁻¹⁴ (bit pattern b, magnitude
// pattern abs): a leaf small enough for the primitives to inline.
func halfRoundSmall(b, abs uint32) float32 {
	if abs < f32HalfTiny {
		return math.Float32frombits(b & f32Sign)
	}
	r := float32(math.Float32frombits(abs)+0.5) - 0.5
	return math.Float32frombits(math.Float32bits(r) | b&f32Sign)
}

// HalfMulAddPanel computes, for the rows i of a in ascending order,
// acc[c] += RoundHalf(a[i] * w[i*stride+c]) for every c in acc: a run of
// activations against the weight rows they meet, which is every row-shaped
// inner loop of the nn kernels at once — the (kx, ic) run of one kernel row of
// a convolution, the input features of a dense layer, the inner dimension of
// a matmul — with acc a window of the output channels when stride is
// wider than it. With skipZero, rows whose activation is +0 or -0 are skipped:
// the caller vouches that every weight is finite and that acc started at +0
// (DESIGN.md §7.2). Each accumulator takes its products in row order whoever
// adds them (§7.4). w must reach index (len(a)-1)*stride + len(acc) - 1.
//
// The lanes take the columns a block at a time — the widest of 32, 16 and 8
// that fits — with the block's accumulators in registers across all the rows
// and no test on any product, and store them only if every one came out finite.
// A rare product leaves the converter as ±Inf or NaN and an accumulator that
// has met one stays non-finite, so a block that was stored met none; any other
// block is untouched in memory and the Go loop computes it whole, as it does
// the tail, and stays the only code that produces a rare-band result.
func HalfMulAddPanel(acc, a, w []float32, stride int, skipZero bool) {
	if len(a) == 0 || len(acc) == 0 {
		return
	}
	_ = w[(len(a)-1)*stride+len(acc)-1]
	for len(acc) > 0 {
		n, ok := len(acc), false
		if hasAVX2 && n >= laneChunk {
			n, ok = halfMulAddPanelAVX2(acc, a, w, stride, skipZero)
		}
		if !ok {
			for i, av := range a {
				if av == 0 && skipZero {
					continue
				}
				halfMulAddRowGo(acc[:n], av, w[i*stride:i*stride+n])
			}
		}
		acc, w = acc[n:], w[n:]
	}
}

// HalfMulAddRow computes acc[i] += RoundHalf(a * w[i]) for every i in w: one
// activation against one contiguous weight row, for a caller that holds one
// activation at a time (the cycle-level reference's MAC cycle). It keeps its
// own lanes: as a one-row panel a 16-wide call was 15% slower, all of it
// argument traffic. acc must be at least as long as w.
func HalfMulAddRow(acc []float32, a float32, w []float32) {
	acc = acc[:len(w)]
	if hasAVX2 {
		n := halfMulAddRowAVX2(acc, a, w)
		for n+laneChunk <= len(w) {
			halfMulAddRowGo(acc[n:n+laneChunk], a, w[n:n+laneChunk])
			n += laneChunk
			n += halfMulAddRowAVX2(acc[n:], a, w[n:])
		}
		acc, w = acc[n:], w[n:]
	}
	halfMulAddRowGo(acc, a, w)
}

// The ...Go functions are the primitives in pure Go: all of each primitive
// where there are no lanes, and the rare band and the tails where there are.

func halfMulAddRowGo(acc []float32, a float32, w []float32) {
	acc = acc[:len(w)]
	for i, wv := range w {
		b := math.Float32bits(a * wv)
		abs := b &^ f32Sign
		switch {
		case abs-f32HalfNormal < f32HalfOver-f32HalfNormal:
			acc[i] += math.Float32frombits((b + 0x0fff + (b >> 13 & 1)) &^ 0x1fff)
		case abs < f32HalfNormal:
			acc[i] += halfRoundSmall(b, abs)
		default:
			acc[i] += RoundHalfRef(math.Float32frombits(b))
		}
	}
}

// HalfMulAddVec computes acc[i] += RoundHalf(a[i] * w[i]) for every i in w,
// the element-wise form a depthwise convolution needs. acc and a must be at
// least as long as w.
func HalfMulAddVec(acc, a, w []float32) {
	acc, a = acc[:len(w)], a[:len(w)]
	if hasAVX2 {
		n := halfMulAddVecAVX2(acc, a, w)
		for n+laneChunk <= len(w) {
			halfMulAddVecGo(acc[n:n+laneChunk], a[n:n+laneChunk], w[n:n+laneChunk])
			n += laneChunk
			n += halfMulAddVecAVX2(acc[n:], a[n:], w[n:])
		}
		acc, a, w = acc[n:], a[n:], w[n:]
	}
	halfMulAddVecGo(acc, a, w)
}

func halfMulAddVecGo(acc, a, w []float32) {
	acc, a = acc[:len(w)], a[:len(w)]
	for i, wv := range w {
		b := math.Float32bits(a[i] * wv)
		abs := b &^ f32Sign
		switch {
		case abs-f32HalfNormal < f32HalfOver-f32HalfNormal:
			acc[i] += math.Float32frombits((b + 0x0fff + (b >> 13 & 1)) &^ 0x1fff)
		case abs < f32HalfNormal:
			acc[i] += halfRoundSmall(b, abs)
		default:
			acc[i] += RoundHalfRef(math.Float32frombits(b))
		}
	}
}

// HalfDot returns acc + Σ RoundHalf(a[i] * w[i]), added in ascending i: one
// neuron against its gathered weight column. a must be at least as long as w.
func HalfDot(acc float32, a, w []float32) float32 {
	a = a[:len(w)]
	if hasAVX2 {
		var n, m int
		acc, n = halfDotAVX2(acc, a, w)
		for n+laneChunk <= len(w) {
			acc = halfDotGo(acc, a[n:n+laneChunk], w[n:n+laneChunk])
			n += laneChunk
			acc, m = halfDotAVX2(acc, a[n:], w[n:])
			n += m
		}
		a, w = a[n:], w[n:]
	}
	return halfDotGo(acc, a, w)
}

func halfDotGo(acc float32, a, w []float32) float32 {
	a = a[:len(w)]
	for i, wv := range w {
		b := math.Float32bits(a[i] * wv)
		abs := b &^ f32Sign
		switch {
		case abs-f32HalfNormal < f32HalfOver-f32HalfNormal:
			acc += math.Float32frombits((b + 0x0fff + (b >> 13 & 1)) &^ 0x1fff)
		case abs < f32HalfNormal:
			acc += halfRoundSmall(b, abs)
		default:
			acc += RoundHalfRef(math.Float32frombits(b))
		}
	}
	return acc
}

// halfRoundInto stores RoundHalf(src[i]) in dst[i] for every i in src: the
// FP16 loop of Codec.RoundInto. dst must be at least as long as src.
func halfRoundInto(dst, src []float32) {
	dst = dst[:len(src)]
	if hasAVX2 {
		n := halfRoundAVX2(dst, src)
		for n+laneChunk <= len(src) {
			halfRoundIntoGo(dst[n:n+laneChunk], src[n:n+laneChunk])
			n += laneChunk
			n += halfRoundAVX2(dst[n:], src[n:])
		}
		dst, src = dst[n:], src[n:]
	}
	halfRoundIntoGo(dst, src)
}

func halfRoundIntoGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = RoundHalf(v)
	}
}
