package nn

// kernels.go implements the tiled compute kernels behind Conv2D, Dense and
// MatMulSite. Each kernel computes an arbitrary rectangular tile of the
// output tensor with hoisted slice bounds and flattened index math (verified
// bounds-check-free with `go build -gcflags=-d=ssa/check_bce`), so the same
// code serves three callers:
//
//   - the full forward pass (the whole output is one tile, optionally split
//     into row bands across goroutines when GOMAXPROCS allows);
//   - the replay engine's region sweep, which recomputes only the output box
//     reached by a fault's dirty input region (region.go);
//   - the kernel equivalence tests, which sweep random tiles against the
//     reference implementations below.
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
// equivalence tests and the campaign differential suites; no production path
// selects them.

import (
	"runtime"
	"sync"
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

// tileCount counts kernel tile executions process-wide (one full forward is
// at least one tile; goroutine bands and region sweeps add more). Telemetry
// reads it to report tiling activity.
var tileCount atomic.Int64

// TileCount returns the cumulative number of kernel tiles executed.
func TileCount() int64 { return tileCount.Load() }

// forceKernelWorkers overrides the goroutine-tiling worker count in tests, so
// the parallel band path is exercised even on single-CPU machines.
var forceKernelWorkers atomic.Int32

// kernelWorkers returns how many goroutines a kernel may fan out to.
func kernelWorkers() int {
	if w := int(forceKernelWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMACThreshold is the minimum per-forward MAC estimate before a
// kernel fans out to goroutine row bands; below it the spawn overhead wins.
const parallelMACThreshold = 1 << 17

// convArgs bundles the resolved geometry and pre-rounded operand buffers of
// one Conv2D forward pass. rinOff is subtracted from every flattened input
// index, letting rin be a row window rather than the full tensor (the region
// sweep rounds only the rows a tile reads).
type convArgs struct {
	rin, rw, bias, out []float32
	rinOff             int
	n, h, w, inC       int
	oh, ow, outC       int
	kh, kw, stride, pd int
	depthwise, fp16    bool
	// thr is roundedWeights.thr: set when every rounded FP16 weight is finite,
	// a ±0 activation then contributes ±0 to every accumulator of its weight
	// row, and an accumulator that starts at +0 never holds -0, so the FP16
	// panel may skip the row without changing a bit (DESIGN.md §7.1.4).
	thr   []uint32
	codec numerics.Codec
}

// mulAddPanel is the row loop of every kernel but the depthwise one: for the
// rows i of a in ascending order, acc[c] += a[i]·w[i*stride+c] for every c in
// acc, the FP16 product rounded through the half encoding — one call into the
// lanes for the whole run either way (numerics.HalfMulAddPanel, and
// numerics.MulAddPanel for the precisions whose products are not rounded). With
// thr, one threshold a row of w, the FP16 panel skips the rows of ±0
// activations (convArgs.thr); the float32 panel computes every row, which gives
// the same bits. a is one kernel row's (kx, ic) run of a convolution, a dense
// layer's input features or a matmul's inner dimension; acc is all of the
// output's last axis, or a window of it when stride is wider.
func mulAddPanel(fp16 bool, thr []uint32, acc, a, w []float32, stride int) {
	if fp16 {
		numerics.HalfMulAddPanel(acc, a, w, stride, thr)
		return
	}
	numerics.MulAddPanel(acc, a, w, stride)
}

// rowsFrom returns the thresholds of the weight rows from row i on: nil for
// nil.
func rowsFrom(thr []uint32, i int) []uint32 {
	if thr == nil {
		return nil
	}
	return thr[i:]
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

// convPixel accumulates output channels [c0, c0+len(accs)) of pixel (oy, ox)
// of batch image bi into accs, from +0 and in (ky, kx, ic) order: the neuron
// before its bias and saturation. A depthwise layer takes all of its channels
// at once (c0 = 0).
func convPixel(a *convArgs, bi, oy, ox, c0 int, accs []float32) {
	rin, rw := a.rin, a.rw
	inC, outC := a.inC, a.outC
	kw, stride, pd := a.kw, a.stride, a.pd
	kyLo, kyHi := kernelSpan(oy, stride, pd, a.kh, a.h)
	kxLo, kxHi := kernelSpan(ox, stride, pd, kw, a.w)
	clear(accs)
	if kxLo >= kxHi {
		return
	}
	for ky := kyLo; ky < kyHi; ky++ {
		iy := oy*stride + ky - pd
		// The kx span is one contiguous run of rounded inputs
		// against one contiguous block of weight rows.
		inBase := ((bi*a.h+iy)*a.w+ox*stride+kxLo-pd)*inC - a.rinOff
		irow := rin[inBase : inBase+(kxHi-kxLo)*inC]
		wBase := (ky*kw + kxLo) * inC
		if !a.depthwise {
			mulAddPanel(a.fp16, rowsFrom(a.thr, wBase), accs, irow, rw[wBase*outC+c0:], outC)
			continue
		}
		wrow := rw[wBase : wBase+len(irow)]
		for ; len(wrow) > 0; irow, wrow = irow[inC:], wrow[inC:] {
			// Pin the operands to accs' length so the inner loop is
			// bounds-check free (outC == inC for depthwise).
			iv, wv := irow[:len(accs)], wrow[:len(accs)]
			if a.fp16 {
				numerics.HalfMulAddVec(accs, iv, wv)
			} else {
				for c, w := range wv {
					accs[c] += iv[c] * w
				}
			}
		}
	}
}

// convTile computes output rows [oy0,oy1) × columns [ox0,ox1) of batch bi,
// all output channels. accs must hold at least outC elements and is scratch
// owned by the caller (one per goroutine band).
func convTile(a *convArgs, bi, oy0, oy1, ox0, ox1 int, accs []float32) {
	tileCount.Add(1)
	out, outC := a.out, a.outC
	accs = accs[:outC]
	var bias []float32
	if a.bias != nil {
		bias = a.bias[:outC]
	}
	for oy := oy0; oy < oy1; oy++ {
		for ox := ox0; ox < ox1; ox++ {
			convPixel(a, bi, oy, ox, 0, accs)
			outBase := ((bi*a.oh+oy)*a.ow + ox) * outC
			orow := out[outBase : outBase+outC][:len(accs)]
			if bias != nil {
				bias := bias[:len(accs)]
				for c, acc := range accs {
					orow[c] = acc + bias[c]
				}
				a.codec.SaturateInto(orow, orow)
			} else {
				a.codec.SaturateInto(orow, accs)
			}
		}
	}
}

// scratch is what a context keeps from one execution to the next, so that an
// execution allocates only its output: conv accumulators, rounded operands (in;
// w, a matmul's second), kernel arguments, GlobalAvgPool's sums and the hook's
// operand set, whose ComputeNeurons calls reuse in, w and cargs.
type scratch struct {
	accs, in, w []float32
	cargs       convArgs
	dargs       denseArgs
	margs       matmulArgs
	sums        []float64
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

// convForward runs the tiled convolution over the whole output, splitting the
// output rows of each batch image into goroutine bands when the machine and
// the layer are big enough. Bands write disjoint output rows and accumulate
// independently, so the split cannot change any output bit. accs is the
// caller's scratch of outC accumulators for the serial sweep; every band
// makes its own.
func convForward(a *convArgs, accs []float32) {
	workers := kernelWorkers()
	macs := a.oh * a.ow * a.outC * a.kh * a.kw
	if !a.depthwise {
		macs *= a.inC
	}
	if workers > a.oh {
		workers = a.oh
	}
	if workers <= 1 || macs < parallelMACThreshold {
		for bi := 0; bi < a.n; bi++ {
			convTile(a, bi, 0, a.oh, 0, a.ow, accs)
		}
		return
	}
	var wg sync.WaitGroup
	band := (a.oh + workers - 1) / workers
	for g := 0; g < workers; g++ {
		oy0 := g * band
		oy1 := oy0 + band
		if oy1 > a.oh {
			oy1 = a.oh
		}
		if oy0 >= oy1 {
			break
		}
		wg.Add(1)
		go func(oy0, oy1 int) {
			defer wg.Done()
			accs := make([]float32, a.outC)
			for bi := 0; bi < a.n; bi++ {
				convTile(a, bi, oy0, oy1, 0, a.ow, accs)
			}
		}(oy0, oy1)
	}
	wg.Wait()
}

// denseArgs bundles one Dense forward pass for the tiled kernel.
type denseArgs struct {
	rin, rw, bias, out []float32
	batch, in, outN    int
	fp16               bool
	thr                []uint32 // see convArgs
	codec              numerics.Codec
}

// denseTile computes output rows [b0,b1) × columns [o0,o1), accumulating each
// neuron over the input features in ascending order. The out buffer must be
// zeroed over the tile (accumulation happens in place, as in the reference).
func denseTile(a *denseArgs, b0, b1, o0, o1 int) {
	tileCount.Add(1)
	rin, rw, out := a.rin, a.rw, a.out
	in, outN := a.in, a.outN
	for b := b0; b < b1; b++ {
		orow := out[b*outN+o0 : b*outN+o1]
		mulAddPanel(a.fp16, a.thr, orow, rin[b*in:(b+1)*in], rw[o0:], outN)
		if a.bias != nil {
			bias := a.bias[o0:o1][:len(orow)]
			for o := range orow {
				orow[o] += bias[o]
			}
		}
		a.codec.SaturateInto(orow, orow)
	}
}

// denseForward runs the tiled dense kernel, splitting output columns across
// goroutines for large layers (columns, not rows: inference batch is 1).
func denseForward(a *denseArgs) {
	workers := kernelWorkers()
	if workers > a.outN {
		workers = a.outN
	}
	if workers <= 1 || a.batch*a.in*a.outN < parallelMACThreshold {
		denseTile(a, 0, a.batch, 0, a.outN)
		return
	}
	var wg sync.WaitGroup
	band := (a.outN + workers - 1) / workers
	for g := 0; g < workers; g++ {
		o0 := g * band
		o1 := o0 + band
		if o1 > a.outN {
			o1 = a.outN
		}
		if o0 >= o1 {
			break
		}
		wg.Add(1)
		go func(o0, o1 int) {
			defer wg.Done()
			denseTile(a, 0, a.batch, o0, o1)
		}(o0, o1)
	}
	wg.Wait()
}

// matmulArgs bundles one MatMulSite execution for the tiled kernel. rb is the
// rounded second operand as a k×n matrix, whichever way the site was handed it
// (MatMulSite.Run transposes a TransposeB operand once per execution).
type matmulArgs struct {
	ra, rb, out []float32
	m, k, n     int
	scaleOut    float32
	fp16        bool
	codec       numerics.Codec
}

// matmulTile computes output rows [i0,i1) × columns [j0,j1), accumulating
// each neuron over p in ascending order from +0 (DESIGN.md §7.1.2). The out
// buffer must be zeroed over the tile.
func matmulTile(a *matmulArgs, i0, i1, j0, j1 int) {
	tileCount.Add(1)
	ra, rb, out := a.ra, a.rb, a.out
	k, n := a.k, a.n
	for i := i0; i < i1; i++ {
		orow := out[i*n+j0 : i*n+j1]
		mulAddPanel(a.fp16, nil, orow, ra[i*k:(i+1)*k], rb[j0:], n)
		scaleSaturate(a.codec, a.scaleOut, orow)
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

// matmulForward runs the tiled matmul kernel, splitting output rows across
// goroutines for large products.
func matmulForward(a *matmulArgs) {
	workers := kernelWorkers()
	if workers > a.m {
		workers = a.m
	}
	if workers <= 1 || a.m*a.k*a.n < parallelMACThreshold {
		matmulTile(a, 0, a.m, 0, a.n)
		return
	}
	var wg sync.WaitGroup
	band := (a.m + workers - 1) / workers
	for g := 0; g < workers; g++ {
		i0 := g * band
		i1 := i0 + band
		if i1 > a.m {
			i1 = a.m
		}
		if i0 >= i1 {
			break
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			matmulTile(a, i0, i1, 0, a.n)
		}(i0, i1)
	}
	wg.Wait()
}
