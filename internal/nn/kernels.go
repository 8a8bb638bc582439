package nn

// kernels.go implements the tiled compute kernels behind Conv2D, Dense and
// MatMulSite, with hoisted slice bounds and flattened index math (verified
// bounds-check-free with `go build -gcflags=-d=ssa/check_bce`). Every kernel
// runs on the calling goroutine: a campaign's parallelism is its shard
// workers, each running one single-image inference at a time. A Dense or
// MatMulSite forward is one tile, its whole output; the convolution's tile is
// any rectangle of output pixels of its one image, which serves two callers:
//
//   - the full forward pass, whose tile is the whole output;
//   - the replay engine's region sweep, which recomputes only the output box
//     reached by a fault's dirty input region (region.go).
//
// Bit-exactness contract: for every output neuron the accumulation order over
// (ky, kx, ic) — or p for matmul, i for dense — is identical to the reference
// kernels and to Site.ComputeNeuron, and FP16 products are rounded through
// numerics.RoundHalf exactly where the reference rounds them. Tiling only
// changes which outputs are computed, never how one output is computed, so
// any tile decomposition produces bit-identical results.
//
// The reference kernels are the pre-tiling layer loops (including the
// reference FP16 rounding path). They are kept as the oracle for the kernel
// equivalence tests and the campaign conformance suite; no production path
// selects them.

import (
	"sync/atomic"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// referenceKernels routes layer forwards through the pre-tiling reference
// loops when set. Campaign differential tests and the benchmark baseline
// flip it; production always runs the tiled kernels.
var referenceKernels atomic.Bool

// SetReferenceKernels selects the reference (pre-tiling) layer kernels when
// on is true. Intended for differential tests and baseline benchmarks.
func SetReferenceKernels(on bool) { referenceKernels.Store(on) }

// UseReferenceKernels reports whether the reference kernels are active.
func UseReferenceKernels() bool { return referenceKernels.Load() }

// tileCount counts kernel tile executions process-wide (a full forward is one
// tile, a region sweep another). Telemetry reads it to report tiling
// activity.
var tileCount atomic.Int64

// TileCount returns the cumulative number of kernel tiles executed.
func TileCount() int64 { return tileCount.Load() }

// convArgs bundles the resolved geometry and pre-rounded operand buffers of
// one Conv2D forward pass over one h×w image. rinOff is subtracted from every
// flattened input index, letting rin be a row window rather than the full
// tensor (the region sweep rounds only the rows a tile reads).
type convArgs struct {
	rin, rw, bias, out []float32
	rinOff             int
	h, w, inC          int
	oh, ow, outC       int
	kh, kw, stride, pd int
	depthwise, fp16    bool
	// thr is roundedWeights.thr: set when every rounded FP16 weight is finite,
	// a ±0 activation then contributes ±0 to every accumulator of its weight
	// row, and an accumulator that starts at +0 never holds -0, so the FP16
	// panel may skip the row without changing a bit (DESIGN.md §7.1.4).
	thr   []uint32
	wh    []uint16 // roundedWeights.wh
	codec numerics.Codec
}

// mulAddPanel is the row loop of every kernel but the depthwise one: for the
// rows i of a in ascending order, acc[c] += a[i]·w[i*stride+c] for every c in
// acc, the FP16 product rounded through the half encoding — one call into the
// lanes for the whole run either way (numerics.HalfMulAddPanel, and
// numerics.MulAddPanel for the precisions whose products are not rounded).
// With thr, one threshold a row of w, the FP16 panel skips the rows of ±0
// activations (roundedWeights.thr), and with wh, w's halves, it may multiply
// in FP16; the float32 panel computes every row, which gives the same bits.
// a is one kernel row's (kx, ic) run of a convolution, a dense layer's input
// features or a matmul's inner dimension; acc is all of the output's last
// axis, or a window of it when stride is wider.
func mulAddPanel(fp16 bool, thr []uint32, wh []uint16, acc, a, w []float32, stride int) {
	if fp16 {
		numerics.HalfMulAddPanel(acc, a, w, wh, stride, thr)
		return
	}
	numerics.MulAddPanel(acc, a, w, stride)
}

// from returns s from element i on: nil for nil. The kernels slice the weight
// cache's thresholds and packed weights with it.
func from[T any](s []T, i int) []T {
	if s == nil {
		return nil
	}
	return s[i:]
}

// dotRow returns acc + Σ a[i]·w[i] added in ascending i, the FP16 product
// rounded through the half encoding: one neuron against its gathered weight
// column.
func dotRow(fp16 bool, acc float32, a, w []float32) float32 {
	if fp16 {
		return numerics.HalfDot(acc, a, w)
	}
	a = a[:len(w)]
	for i, wv := range w {
		acc += a[i] * wv
	}
	return acc
}

// kernelSpan returns the kernel offsets [lo, hi) at which output coordinate o
// reads inside an input axis of n elements (i = o*stride + k - pd in [0, n));
// the reference kernel skips the others one by one. hi <= lo when every
// offset falls into the padding.
func kernelSpan(o, stride, pd, k, n int) (lo, hi int) {
	return max(pd-o*stride, 0), min(n+pd-o*stride, k)
}

// wholeSpans returns the output coordinates [lo, hi) within [o0, o1) whose
// kernelSpan is all k offsets; lo == hi when there are none.
func wholeSpans(o0, o1, stride, pd, k, n int) (lo, hi int) {
	lo = max(o0, (pd+stride-1)/stride)
	if n+pd < k {
		return lo, lo
	}
	return lo, max(lo, min(o1, (n+pd-k)/stride+1))
}

// convPixel accumulates output channels [c0, c0+len(accs)) of pixel (oy, ox)
// into accs, from +0 and in (ky, kx, ic) order: the neuron before its bias
// and saturation: of a depthwise layer too, whose channel c reads input
// channel c alone — at FP16 one element-wise run over the whole window
// (depthwiseRun). Any other FP16 layer's window is one panel run, a segment
// a kernel row (numerics.HalfMulAddPanelRun), where the CPU has the FP16
// body that takes it whole; elsewhere a panel call a kernel row.
func convPixel(a *convArgs, oy, ox, c0 int, accs []float32) {
	if a.depthwise && a.fp16 {
		r := a.depthwiseRows(oy)
		in, w, g := a.depthwiseRun(&r, ox, c0)
		numerics.HalfMulAddVec(accs, a.rin[in:], a.rw[w:], g)
		return
	}
	rin, rw := a.rin, a.rw
	inC, outC := a.inC, a.outC
	kw, stride, pd := a.kw, a.stride, a.pd
	kyLo, kyHi := kernelSpan(oy, stride, pd, a.kh, a.h)
	kxLo, kxHi := kernelSpan(ox, stride, pd, kw, a.w)
	clear(accs)
	if kxLo >= kxHi {
		return
	}
	if a.fp16 && kyLo < kyHi && numerics.FP16PanelRuns() {
		inBase := ((oy*stride+kyLo-pd)*a.w+ox*stride+kxLo-pd)*inC - a.rinOff
		wBase := (kyLo*kw + kxLo) * inC
		g := numerics.PanelRun{Rows: (kxHi - kxLo) * inC, Segs: kyHi - kyLo, ASeg: a.w * inC, WSeg: kw * inC}
		numerics.HalfMulAddPanelRun(accs, rin[inBase:], rw[wBase*outC+c0:], from(a.wh, wBase*outC+c0), outC, from(a.thr, wBase), g)
		return
	}
	for ky := kyLo; ky < kyHi; ky++ {
		iy := oy*stride + ky - pd
		// The kx span is one contiguous run of rounded inputs
		// against one contiguous block of weight rows.
		inBase := (iy*a.w+ox*stride+kxLo-pd)*inC - a.rinOff
		irow := rin[inBase : inBase+(kxHi-kxLo)*inC]
		wBase := (ky*kw + kxLo) * inC
		if !a.depthwise { // FP16 where the CPU lacks the FP16 body, and the other precisions
			mulAddPanel(a.fp16, from(a.thr, wBase), nil, accs, irow, rw[wBase*outC+c0:], outC)
			continue
		}
		// Depthwise: channel c of each kx tap against its own weight, the
		// taps inC apart in both operands (outC == inC).
		irow, wrow := irow[c0:], rw[wBase+c0:wBase+len(irow)]
		for o := 0; o < len(wrow); o += inC {
			// Pin the operands to accs' length so the inner loop is
			// bounds-check free.
			iv, wv := irow[o:o+len(accs)], wrow[o:o+len(accs)]
			for c, w := range wv {
				accs[c] += iv[c] * w
			}
		}
	}
}

// dwRows is what an output row of an FP16 depthwise layer fixes of its
// pixels' element-wise runs: the offsets of the first kernel row inside the
// map in the rounded input (its map row, column 0) and in the weights (its
// kx = 0 tap), and the geometry but the taps — those kernel rows, w·inC apart
// in the input and kw·inC in the weights, their taps inC apart.
type dwRows struct {
	in, w int
	g     numerics.VecRun
}

// depthwiseRows returns output row oy's dwRows.
func (a *convArgs) depthwiseRows(oy int) dwRows {
	kyLo, kyHi := kernelSpan(oy, a.stride, a.pd, a.kh, a.h)
	inC := a.inC
	return dwRows{
		in: (oy*a.stride+kyLo-a.pd)*a.w*inC - a.rinOff, w: kyLo * a.kw * inC,
		g: numerics.VecRun{Stride: inC, Rows: kyHi - kyLo, ARow: a.w * inC, WRow: a.kw * inC},
	}
}

// depthwiseRun returns the kernel window of pixel ox of the row r is of, as
// one element-wise run from channel c0 on: the offsets of its first tap in
// the rounded input and in the weights, and its geometry, r's with the taps
// of its kx span inside the map. A window wholly in the padding is a run of
// no rows or no taps, at offsets 0.
func (a *convArgs) depthwiseRun(r *dwRows, ox, c0 int) (in, w int, g numerics.VecRun) {
	lo, hi := kernelSpan(ox, a.stride, a.pd, a.kw, a.w)
	if g = r.g; g.Rows > 0 && lo < hi {
		g.Taps = hi - lo
		in, w = r.in+(ox*a.stride+lo-a.pd)*a.inC+c0, r.w+lo*a.inC+c0
	}
	return in, w, g
}

// convTile computes output rows [oy0,oy1) × columns [ox0,ox1), all output
// channels. accs must hold at least outC elements and is the caller's
// scratch. At FP16 a depthwise row's
// pixels with whole kernel windows are one call, and each other pixel one,
// that also adds the bias and saturates (numerics.HalfMulAddVecSaturate).
func convTile(a *convArgs, oy0, oy1, ox0, ox1 int, accs []float32) {
	tileCount.Add(1)
	out, outC := a.out, a.outC
	accs = accs[:outC]
	var bias []float32
	if a.bias != nil {
		bias = a.bias[:outC]
	}
	if a.depthwise && a.fp16 {
		// The pixels whose kx span is whole share their taps: one call for
		// all of them, one for each other pixel.
		wholeLo, wholeHi := wholeSpans(ox0, ox1, a.stride, a.pd, a.kw, a.w)
		for oy := oy0; oy < oy1; oy++ {
			r := a.depthwiseRows(oy)
			for ox := ox0; ox < ox1; {
				in, w, g := a.depthwiseRun(&r, ox, 0)
				g.Pixels = 1
				if ox == wholeLo && wholeHi > wholeLo {
					g.Pixels, g.APixel = wholeHi-wholeLo, a.stride*a.inC
				}
				outBase := (oy*a.ow + ox) * outC
				numerics.HalfMulAddVecSaturate(out[outBase:outBase+g.Pixels*outC], a.rin[in:], a.rw[w:], bias, g)
				ox += g.Pixels
			}
		}
		return
	}
	for oy := oy0; oy < oy1; oy++ {
		for ox := ox0; ox < ox1; ox++ {
			convPixel(a, oy, ox, 0, accs)
			outBase := (oy*a.ow + ox) * outC
			orow := out[outBase : outBase+outC][:len(accs)]
			if bias != nil {
				numerics.AddRow(orow, accs, bias)
				a.codec.SaturateInto(orow, orow)
			} else {
				a.codec.SaturateInto(orow, accs)
			}
		}
	}
}

// scratch is what a context keeps from one execution to the next, so that an
// execution allocates only its output: conv accumulators, rounded operands (in;
// w, a matmul's second), the conv kernel's arguments, GlobalAvgPool's sums, the
// LSTM's cell state and gate input, and the hook's operand set, whose
// ComputeNeurons calls reuse in, w, cargs and pos (a conv's decoded neuron
// positions).
type scratch struct {
	accs, in, w []float32
	cargs       convArgs
	pos         []outPos
	sums        []float64
	cell        []float32
	gatesIn     *tensor.Tensor
	ops         Operands
}

// scratch returns the context's scratch, or fresh scratch for a nil context.
func (c *Context) scratch() *scratch {
	if c == nil {
		return new(scratch)
	}
	return &c.sc
}

// round returns the codec's rounding of src: src itself at FP32, where
// rounding is the identity, else *buf grown to hold it.
func round(buf *[]float32, codec numerics.Codec, src []float32) []float32 {
	if codec.Precision() == numerics.FP32 {
		return src
	}
	*buf = grow(*buf, len(src))
	codec.RoundInto(*buf, src)
	return *buf
}

// operands returns the operand set of one site execution for the hook, in the
// block the next execution rewrites.
func (s *scratch) operands(in, w, b, out *tensor.Tensor) *Operands {
	s.ops = Operands{In: in, W: w, B: b, Out: out, sc: s}
	return &s.ops
}

// denseTile computes the batch output rows of l into out, which must be
// zeroed (accumulation happens in place, as in the reference): each neuron
// over the input features in ascending order, then the bias and the
// converter's saturation.
func denseTile(l *Dense, rw *roundedWeights, rin, out []float32, batch int) {
	tileCount.Add(1)
	fp16 := l.codec.Precision() == numerics.FP16
	in, outN := l.In, l.Out
	for b := 0; b < batch; b++ {
		orow := out[b*outN : (b+1)*outN]
		mulAddPanel(fp16, rw.thr, rw.wh, orow, rin[b*in:(b+1)*in], rw.rw, outN)
		if l.B != nil {
			numerics.AddRow(orow, orow, l.B.Data())
		}
		l.codec.SaturateInto(orow, orow)
	}
}

// matmulTile computes the m×n product of l's rounded operands ra (m×k) and rb
// (k×n, whichever way the site was handed it: MatMulSite.Run transposes a
// TransposeB operand once per execution) into out, which must be zeroed,
// accumulating each neuron over p in ascending order from +0 (DESIGN.md
// §7.1.2).
func matmulTile(l *MatMulSite, ra, rb, out []float32, m, k, n int) {
	tileCount.Add(1)
	fp16 := l.codec.Precision() == numerics.FP16
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		mulAddPanel(fp16, nil, nil, orow, ra[i*k:(i+1)*k], rb, n)
		scaleSaturate(l.codec, l.ScaleOut, orow)
	}
}

// scaleSaturate finishes a run of matmul accumulators in place: the site's
// output scale (0 means none), then the converter's saturation.
func scaleSaturate(codec numerics.Codec, scale float32, run []float32) {
	if scale != 0 {
		for j := range run {
			run[j] *= scale
		}
	}
	codec.SaturateInto(run, run)
}
