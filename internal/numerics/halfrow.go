package numerics

// halfrow.go holds the fused FP16 multiply-round-accumulate row primitives
// behind the nn kernels' inner loops, each a loop over
//
//	acc += RoundHalf(a * w)
//
// with the rounding written out on the product's bit pattern instead of a
// call per MAC (RoundHalf is past the inliner's budget), by band of |p|: a
// normal half [2⁻¹⁴, 65520) is "add 0x0fff plus the keep-bit, clear the low
// 13 bits"; a half subnormal [2⁻²⁴, 2⁻¹⁴) is (|p| + 0.5) − 0.5; below 2⁻²⁴ a
// signed zero, as HalfFromFloat32 flushes it; the rest (overflow, ±Inf, NaN)
// RoundHalfRef. DESIGN.md §7.1.1 says why each is exact. Every primitive
// keeps the lane contract (§7.1): with hasAVX2, halfrow_amd64.s takes the
// whole chunks and hands back those with a lane in the rest, and the loops
// below are the fallback, the tail and the oracle.

import "math"

// Bit patterns of the band edges above, on |p|.
const (
	f32HalfTiny   = 0x33800000 // 2⁻²⁴, the smallest half subnormal
	f32HalfNormal = 0x38800000 // 2⁻¹⁴, the smallest normal half
	f32HalfOver   = 0x477ff000 // first pattern that rounds past HalfMax
	f32Sign       = 0x80000000
	f32Inf        = 0x7f800000
)

// laneChunk is how many elements one step of the AVX2 routines takes. The row,
// dot and rounding routines do whole chunks from the front of their operands
// and return how many elements they finished: every whole chunk, or fewer
// when they stopped before a chunk with a lane in the rare band. The
// primitive's Go loop — the one implementation of that band — then does that
// chunk and the lanes resume behind it, so a faulty tensor full of Inf and
// NaN runs at the Go loop's speed, not to different bits; the Go loop also
// does every tail. The panel and the element-wise run return no
// position: they take one column block a call and say whether they stored it
// (HalfMulAddPanel) or, the run, how many of its pixels (halfMulAddVec).
const laneChunk = 8

// zmmChunk is the lanes of one ZMM register: the narrowest column block of the
// panel's AVX-512 body, which takes every block of that width or more where
// the CPU has it (hasAVX512).
const zmmChunk = 16

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
// wider than it. w must reach index (len(a)-1)*stride + len(acc) - 1.
//
// thr is nil, and every row is computed, or it holds at least len(a) entries,
// thr[i] HalfPanelThresholds' entry for the weight row a[i] meets, and the
// rows whose activation is +0 or -0 are skipped: the caller vouches that every
// weight is finite and that acc started at +0 (DESIGN.md §7.1.4). Each
// accumulator takes its products in row order whoever adds them (§7.1.2).
//
// The lanes take the columns a block at a time — the widest of 32, 16 and 8
// that fits, or with AVX-512 of 64, 32 and 16 and then 8 — with the block's
// accumulators in registers across all the rows and no test on any product,
// and store them only if every one came out finite.
// A rare product leaves the converter as ±Inf or NaN and an accumulator that
// has met one stays non-finite, so a block that was stored met none; any other
// block is untouched in memory and the Go loop computes it whole, as it does
// the tail, and stays the only code that produces a rare-band result. With thr
// the lanes find the rows to visit by bitmask and leave out the underflow mask
// on a row whose |a[i]| is at least thr[i], where it changes no bit.
//
// wh is nil, or HalfPanelWeights(w) (nil too unless every weight is a half):
// then, with thr, on a CPU with AVX512-FP16, a row whose a[i] is a half and
// at least thr[i] multiplies in FP16, on the halves, which rounds the product
// as the model does there (DESIGN.md §7.1.4); such a panel goes to
// HalfMulAddPanelRun as a run of one segment. Without thr, wh is not read.
func HalfMulAddPanel(acc, a, w []float32, wh []uint16, stride int, thr []uint32) {
	if fp16Panel(thr, wh, len(a)*len(acc)) {
		HalfMulAddPanelRun(acc, a, w, wh, stride, thr, PanelRun{Rows: len(a), Segs: 1})
		return
	}
	if len(a) == 0 || len(acc) == 0 {
		return
	}
	_ = w[(len(a)-1)*stride+len(acc)-1]
	skip := thr != nil
	if skip {
		thr = thr[:len(a)]
	}
	for len(acc) > 0 {
		n, ok := len(acc), false
		switch {
		case hasAVX2 && hasAVX512 && n >= zmmChunk:
			n, ok = halfMulAddPanelAVX512(acc, a, w, stride, thr)
		case hasAVX2 && n >= laneChunk:
			n, ok = halfMulAddPanelAVX2(acc, a, w, stride, thr)
		}
		if !ok {
			for i, av := range a {
				if av == 0 && skip {
					continue
				}
				halfMulAddRowGo(acc[:n], av, w[i*stride:i*stride+n])
			}
		}
		acc, w = acc[n:], w[n:]
	}
}

// fp16Panel reports whether a panel with thresholds thr and packed weights
// wh, macs rows times columns, runs the FP16 body: both given, at least
// fp16PanelMACs, on a CPU with AVX512-FP16.
func fp16Panel(thr []uint32, wh []uint16, macs int) bool {
	return thr != nil && wh != nil && macs >= fp16PanelMACs && FP16PanelRuns()
}

// FP16PanelRuns reports whether the CPU has the panel's FP16 body, the one
// body that takes a HalfMulAddPanelRun whole. Without it a run is a
// HalfMulAddPanel call a segment, which a caller that walks the segments
// itself makes with one call layer less.
func FP16PanelRuns() bool { return hasAVX2 && hasAVX512 && hasAVX512FP16 }

// fp16PanelMinMACs is the smallest panel, rows times columns, that the FP16
// body takes. Under it the body's fixed cost per call (its frame and the pass
// that converts and checks the activations) is more than its rows save: a
// 16-row panel of 32 columns ran 37 ns against the AVX-512 body's 34, one of
// 32 rows 53 against 59 (EXPERIMENTS.md). fp16PanelMACs is it; the lane
// tests' avx512fp16 leg lowers it to 0 to hold the body to small panels too.
const fp16PanelMinMACs = 1024

var fp16PanelMACs = fp16PanelMinMACs

// PanelRun is the shape of a panel run: Segs segments of Rows rows each,
// their activations ASeg apart and their weight rows (and thresholds) WSeg
// rows apart. A convolution pixel's window is one run: its kernel rows inside
// the map, each the (kx, ic) run of its taps inside the map, ASeg an input
// row (w·inC) and WSeg a kernel row of weight rows (kw·inC).
type PanelRun struct{ Rows, Segs, ASeg, WSeg int }

// HalfMulAddPanelRun is HalfMulAddPanel over the segments of g in turn, for s
// from 0 to g.Segs-1 on a[s·ASeg:][:Rows] against the weight rows from row
// s·WSeg on (of w, wh and thr alike): one call for a convolution pixel's
// whole window. The FP16 body takes a column block over the whole run, with
// the accumulators in registers and the block rule kept over the run; every
// block it does not take or refuses is a HalfMulAddPanel call a segment
// without the packed weights, which adds the same products in the same order
// and holds the panel's one Go loop. No field of g may be negative.
func HalfMulAddPanelRun(acc, a, w []float32, wh []uint16, stride int, thr []uint32, g PanelRun) {
	if len(acc) == 0 || g.Rows <= 0 || g.Segs <= 0 {
		return
	}
	if g.ASeg < 0 || g.WSeg < 0 {
		panic("numerics: HalfMulAddPanelRun with a negative step")
	}
	rows := (g.Segs-1)*g.WSeg + g.Rows // the weight rows the run reaches
	_ = a[(g.Segs-1)*g.ASeg+g.Rows-1]
	_ = w[(rows-1)*stride+len(acc)-1]
	if thr != nil {
		thr = thr[:rows]
	}
	fp16 := fp16Panel(thr, wh, g.Segs*g.Rows*len(acc))
	if fp16 {
		_ = wh[(rows-1)*stride+len(acc)-1]
	}
	for len(acc) > 0 {
		n := len(acc)
		if fp16 && n >= zmmChunk {
			var ok bool
			if n, ok = halfMulAddPanelAVX512FP16(acc, a, w, wh, stride, thr, g); ok {
				acc, w, wh = acc[n:], w[n:], wh[n:]
				continue
			}
		}
		for s := 0; s < g.Segs; s++ {
			var ts []uint32
			if thr != nil {
				ts = thr[s*g.WSeg:]
			}
			HalfMulAddPanel(acc[:n], a[s*g.ASeg:][:g.Rows], w[s*g.WSeg*stride:], nil, stride, ts)
		}
		acc, w = acc[n:], w[n:]
		if fp16 {
			wh = wh[n:]
		}
	}
}

// HalfPanelWeights returns the FP16 encodings of w, HalfFromFloat32 of each
// element, as HalfMulAddPanel's packed weights: nil unless every element is
// a half, one that widens back to its own bits, since the FP16 body
// multiplies the halves and agrees with the other bodies only on those. A
// normal half, the common weight, is a float32 of exponent 2⁻¹⁴ to 2¹⁵ whose
// 13 low mantissa bits are clear, and its encoding is those bits moved.
func HalfPanelWeights(w []float32) []uint16 {
	wh := make([]uint16, len(w))
	w = w[:len(wh)]
	for i := range wh {
		b := math.Float32bits(w[i])
		if e := b >> 23 & 0xff; e-113 < 30 && b&0x1fff == 0 {
			wh[i] = uint16(b>>16&0x8000 | (e-112)<<10 | b>>13&0x3ff)
			continue
		}
		h := HalfFromFloat32(w[i])
		if math.Float32bits(h.Float32()) != b {
			return nil
		}
		wh[i] = uint16(h)
	}
	return wh
}

// HalfPanelThresholds returns, for each of the len(w)/stride rows of w, the
// bit pattern of ⌈2⁻²⁴ / m⌉, m the smallest magnitude of the row's nonzero
// finite weights: the smallest float32 t with t·m ≥ 2⁻²⁴, the product taken
// exactly. An activation a with |a| ≥ t meets the row's finite weights in
// products that are ±0 or at least 2⁻²⁴ in magnitude (float rounding is
// monotone and 2⁻²⁴ is a float32), where the underflow mask changes nothing;
// HalfMulAddPanel takes these as its thr. A row with no nonzero finite weight
// gives 0 (a ±Inf or NaN weight makes every product of a row it is in
// non-finite or NaN whichever way it is rounded). t is at most 2¹²⁵, for the
// smallest float32 subnormal: every row has a finite threshold.
func HalfPanelThresholds(w []float32, stride int) []uint32 {
	thr := make([]uint32, len(w)/stride)
	for i := range thr {
		row := w[i*stride : (i+1)*stride]
		m := uint32(f32Inf) // the smallest nonzero finite |v| so far, as a pattern
		for _, v := range row {
			if b := math.Float32bits(v) &^ f32Sign; b-1 < m-1 { // 0 wraps round
				m = b
			}
		}
		if m != f32Inf {
			thr[i] = halfThreshold(float64(math.Float32frombits(m)))
		}
	}
	return thr
}

// halfThreshold returns the pattern of ⌈2⁻²⁴ / m⌉ for a float32 m > 0. The
// float64 quotient's nearest float32 is that ceiling or the float32 below it,
// and float64 holds the product of two float32s exactly.
func halfThreshold(m float64) uint32 {
	t := float32(0x1p-24 / m)
	if float64(t)*m < 0x1p-24 {
		t = math.Nextafter32(t, float32(math.Inf(1)))
	}
	return math.Float32bits(t)
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

// VecRun is the shape of an element-wise run: Rows rows of Taps taps, the
// taps Stride apart in both operands, the rows ARow apart in the activations
// and WRow apart in the weights; and max(Pixels, 1) such runs, APixel apart in
// the activations over the same weights, whose sums are Stride apart in the
// output. A depthwise convolution's output pixel is one run: its kernel rows
// inside the map, the kx taps of each, Stride the channel count inC, ARow a
// row of the input map (w·inC) and WRow a kernel row of weights (kw·inC); and
// the pixels of an output row whose windows lie whole inside the map are
// runs APixel = stride·inC apart.
type VecRun struct{ Stride, Taps, Rows, ARow, WRow, Pixels, APixel int }

// HalfMulAddVec stores in acc[p·Stride+c], for each pixel p and every column
// c of a pixel, the sum from +0 of RoundHalf(a[o+c] * w[q+c]), o = p·APixel +
// r·ARow + t·Stride and q = r·WRow + t·Stride, over the rows r in ascending
// order and in each row the taps t in ascending order: each channel of a
// depthwise pixel against its own weights, before its bias and saturation. A
// pixel has len(acc) - (Pixels-1)·Stride columns, at most Stride when there
// are two pixels or more; a and w must reach the last pixel's last row's last
// tap of its last column; no field of g may be negative.
func HalfMulAddVec(acc, a, w []float32, g VecRun) { halfMulAddVec(acc, a, w, nil, g, false) }

// HalfMulAddVecSaturate stores in out[p·Stride+c] Saturate(s + bias[c]) of
// the FP16 codec, s what HalfMulAddVec stores there: the whole of depthwise
// pixels' output channels. bias is nil (no bias) or at least as long as a
// pixel's columns.
func HalfMulAddVecSaturate(out, a, w, bias []float32, g VecRun) {
	halfMulAddVec(out, a, w, bias, g, true)
}

// halfMulAddVec is both forms, finish selecting HalfMulAddVecSaturate's.
//
// The lanes keep HalfMulAddPanel's block rule, per pixel: the columns a
// block of 32, 16 or 8 at a time, the block's accumulators in registers from
// +0 across every tap of every row, every product masked and none tested. The
// raw form stores them only if all came out finite. The finishing form first
// adds the bias, then tests, and only if every lane is finite clips to
// ±HalfMax and rounds on the way to the store: a sum the bias makes ±Inf or
// NaN is refused as a rare product is. One call walks a block through every
// pixel and stops at the first it refuses; the Go loop computes that pixel's
// block whole (halfMulAddVecGo, then AddRow and saturateHalf), as it does the
// tail, and stays the only code that produces a non-finite result, and the
// lanes resume at the next pixel. Each accumulator takes its products in
// (row, tap) order whoever adds them (DESIGN.md §7.1.2).
func halfMulAddVec(out, a, w, bias []float32, g VecRun, finish bool) {
	g.Pixels = max(g.Pixels, 1)
	cols := len(out) - (g.Pixels-1)*g.Stride
	if cols <= 0 {
		return
	}
	if bias != nil {
		bias = bias[:cols]
	}
	if g.Stride < 0 || g.ARow < 0 || g.WRow < 0 || g.APixel < 0 {
		panic("numerics: HalfMulAddVec with a negative stride")
	}
	if g.Pixels > 1 && g.Stride < cols {
		panic("numerics: HalfMulAddVec with overlapping pixels")
	}
	if g.Rows <= 0 || g.Taps <= 0 { // no products: every sum is +0
		for p := 0; p < g.Pixels; p++ {
			o := out[p*g.Stride:][:cols]
			clear(o)
			if finish {
				finishHalf(o, bias)
			}
		}
		return
	}
	span := (g.Taps-1)*g.Stride + cols
	a, w = a[:(g.Pixels-1)*g.APixel+(g.Rows-1)*g.ARow+span], w[:(g.Rows-1)*g.WRow+span]
	for c := 0; c < cols; {
		n, bc := cols-c, bias
		if bias != nil {
			bc = bias[c:]
		}
		for p := 0; p < g.Pixels; p++ {
			if hasAVX2 && n >= laneChunk {
				rest := g
				rest.Pixels -= p
				var done int
				n, done = halfMulAddVecAVX2(out[p*g.Stride+c:], a[p*g.APixel+c:], w[c:], bc, rest, finish)
				if p += done; p == g.Pixels {
					break
				}
			}
			o := out[p*g.Stride+c:][:n]
			halfMulAddVecGo(o, a[p*g.APixel+c:], w[c:], g)
			if finish {
				finishHalf(o, bc)
			}
		}
		c += n
	}
}

// finishHalf stores Saturate(out[c] + bias[c]) of the FP16 codec in out[c],
// bias nil for none: Codec.SaturateInto's FP16 leg behind the bias add.
func finishHalf(out, bias []float32) {
	if bias != nil {
		AddRow(out, out, bias)
	}
	saturateHalf(out, out)
}

// halfMulAddVecGo takes the rows in turn and, in each, the columns one at a
// time, each accumulator in a register across the row's taps; o < len(ar)
// holds for every tap and tells the compiler so.
func halfMulAddVecGo(acc, a, w []float32, g VecRun) {
	clear(acc)
	span := (g.Taps-1)*g.Stride + len(acc)
	for r := 0; r < g.Rows; r++ {
		ar := a[r*g.ARow:][:span]
		wr := w[r*g.WRow:][:len(ar)]
		for c, s := range acc {
			for t, o := g.Taps, uint(c); t > 0 && o < uint(len(ar)); t, o = t-1, o+uint(g.Stride) {
				b := math.Float32bits(ar[o] * wr[o])
				abs := b &^ f32Sign
				switch {
				case abs-f32HalfNormal < f32HalfOver-f32HalfNormal:
					s += math.Float32frombits((b + 0x0fff + (b >> 13 & 1)) &^ 0x1fff)
				case abs < f32HalfNormal:
					s += halfRoundSmall(b, abs)
				default:
					s += RoundHalfRef(math.Float32frombits(b))
				}
			}
			acc[c] = s
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
