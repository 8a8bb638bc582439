package nn

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Conv2D is a 2-D convolution over NHWC input with weights laid out
// (KH, KW, InC, OutC). It is the primary fault-injection site for CNN
// workloads: in NVDLA the convolution pipeline (CDMA→CBUF→CMAC→CACC)
// executes exactly this operation.
type Conv2D struct {
	name      string
	KH, KW    int
	InC, OutC int
	Stride    int
	Pad       int
	Depthwise bool // when true, OutC == InC and weights are (KH, KW, InC, 1)

	W *tensor.Tensor
	B *tensor.Tensor // length OutC, may be nil

	codec  numerics.Codec
	wcache weightCache
}

// roundedWeights is what a layer derives from its weight tensor once and
// reuses on every forward and ComputeNeuron.
type roundedWeights struct {
	rw []float32 // RoundSlice(W)
	// thr is numerics.HalfPanelThresholds of rw's rows (W's last axis is a
	// row), filled at FP16 when no element of rw is ±Inf or NaN: that is what
	// lets the FP16 panel skip a zero activation's weight row (0 × finite is
	// ±0; 0 × Inf is NaN and must be computed), and the thresholds let it
	// leave out the underflow mask where it is idle (DESIGN.md §7.1.4). nil
	// otherwise: every row is computed.
	thr []uint32
	// wh is numerics.HalfPanelWeights of rw, filled with thr: the halves the
	// panel multiplies in FP16 on a row at or above its threshold.
	wh []uint16
}

// weightCache holds a layer's roundedWeights. atomic: a Network is shared
// read-only across campaign shards; the recompute is idempotent.
type weightCache struct {
	p atomic.Pointer[roundedWeights]
}

// get returns the cached derivation of w, computing it once.
func (c *weightCache) get(codec numerics.Codec, w *tensor.Tensor) *roundedWeights {
	if rw := c.p.Load(); rw != nil {
		return rw
	}
	rw := &roundedWeights{rw: codec.RoundSlice(w.Data())}
	if codec.Precision() == numerics.FP16 && allFinite(rw.rw) {
		rw.thr = numerics.HalfPanelThresholds(rw.rw, w.Dim(w.Rank()-1))
		rw.wh = numerics.HalfPanelWeights(rw.rw)
	}
	c.p.Store(rw)
	return rw
}

// allFinite reports that no element of s is ±Inf or NaN.
func allFinite(s []float32) bool {
	for _, v := range s {
		if v-v != 0 { // Inf-Inf and NaN-NaN are NaN
			return false
		}
	}
	return true
}

// InvalidateWeights drops the rounded-weight cache. Call after mutating W.
func (l *Conv2D) InvalidateWeights() { l.wcache.p.Store(nil) }

// NewConv2D builds a convolution layer with zero weights; use InitRandom or
// assign W/B to populate parameters.
func NewConv2D(name string, kh, kw, inC, outC, stride, pad int, codec numerics.Codec) *Conv2D {
	if kh <= 0 || kw <= 0 || inC <= 0 || outC <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D geometry k=%dx%d c=%d->%d s=%d p=%d", kh, kw, inC, outC, stride, pad))
	}
	return &Conv2D{
		name: name, KH: kh, KW: kw, InC: inC, OutC: outC, Stride: stride, Pad: pad,
		W:     tensor.New(kh, kw, inC, outC),
		B:     tensor.New(outC),
		codec: codec,
	}
}

// NewDepthwiseConv2D builds a depthwise convolution (one filter per channel),
// the building block of MobileNet.
func NewDepthwiseConv2D(name string, kh, kw, c, stride, pad int, codec numerics.Codec) *Conv2D {
	l := NewConv2D(name, kh, kw, c, c, stride, pad, codec)
	l.Depthwise = true
	l.W = tensor.New(kh, kw, c, 1)
	return l
}

// InitRandom fills weights with N(0, stddev²) and biases with small values.
func (l *Conv2D) InitRandom(rng *rand.Rand, stddev float32) *Conv2D {
	l.W.RandNormal(rng, stddev)
	if l.B != nil {
		l.B.RandNormal(rng, stddev/4)
	}
	l.InvalidateWeights()
	return l
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Kind implements Site.
func (l *Conv2D) Kind() Kind { return KindConv }

// Codec implements Site.
func (l *Conv2D) Codec() numerics.Codec { return l.codec }

// Forward implements Layer. The fast path below pre-rounds both operand
// buffers once and accumulates with MulPre; it is bit-identical to calling
// ComputeNeuron per output neuron (the per-channel accumulation order is the
// same, and MulPre(Round(a), Round(b)) == Mul(a, b)).
func (l *Conv2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(0) != 1 || x.Dim(3) != l.InC {
		panic(fmt.Sprintf("nn: %s expects one NHWC image with %d channels, got %v", l.name, l.InC, x.Shape()))
	}
	return ctx.exec(l, func() *tensor.Tensor {
		oh, ow := l.outHW(x.Dim(1), x.Dim(2))
		out := ctx.newTensor(1, oh, ow, l.OutC)
		sc := ctx.scratch()
		rin := round(&sc.in, l.codec, x.Data())
		if UseReferenceKernels() {
			convForwardRef(l, x, out, rin, l.wcache.get(l.codec, l.W).rw)
		} else {
			sc.accs = grow(sc.accs, l.OutC)
			convTile(l.kernelArgs(&sc.cargs, x, out, rin, 0), 0, oh, 0, ow, sc.accs)
		}
		ctx.fire(l, sc.operands(x, l.W, l.B, out))
		return out
	}, func(out *tensor.Tensor) *Operands {
		return ctx.scratch().operands(x, l.W, l.B, out)
	}, x)
}

// outHW returns the output height and width for an h×w input.
func (l *Conv2D) outHW(h, w int) (oh, ow int) {
	return (h+2*l.Pad-l.KH)/l.Stride + 1, (w+2*l.Pad-l.KW)/l.Stride + 1
}

// kernelArgs assembles, in a, the tiled-kernel argument block for one forward
// pass over input x into out. rin is the pre-rounded input buffer (a row
// window when rinOff is non-zero; see convArgs.rinOff).
func (l *Conv2D) kernelArgs(a *convArgs, x, out *tensor.Tensor, rin []float32, rinOff int) *convArgs {
	os := out.Shape()
	var bias []float32
	if l.B != nil {
		bias = l.B.Data()
	}
	rw := l.wcache.get(l.codec, l.W)
	*a = convArgs{
		rin: rin, rw: rw.rw, bias: bias, out: out.Data(), rinOff: rinOff,
		h: x.Dim(1), w: x.Dim(2), inC: l.InC,
		oh: os[1], ow: os[2], outC: os[3],
		kh: l.KH, kw: l.KW, stride: l.Stride, pd: l.Pad,
		depthwise: l.Depthwise, fp16: l.codec.Precision() == numerics.FP16,
		thr: rw.thr, wh: rw.wh, codec: l.codec,
	}
	return a
}

// ComputeNeuron implements Site. The accumulation order is (kh, kw, ic)
// row-major, matching both the software convolution and the rtlsim MAC
// sequencing so that faulty values agree bit-for-bit.
func (l *Conv2D) ComputeNeuron(op *Operands, off int, ov *Override) float32 {
	in := op.In
	w := op.W
	h, wd := in.Dim(1), in.Dim(2)
	_, ow := l.outHW(h, wd)
	oc, pix := off%l.OutC, off/l.OutC
	oy, ox := pix/ow, pix%ow
	// Flat row-major indexing throughout: this runs once per affected neuron
	// per datapath fault, and the variadic At/Offset accessors allocate their
	// index slice per call — a quarter of campaign wall clock before this.
	ind, wdat := in.Data(), w.Data()
	wc, woc := w.Dim(2), w.Dim(3)
	// Flat override targets; -1 (matching no offset) when the override does
	// not touch that operand, so the hot loop tests one integer per value.
	inFlat, wFlat := ov.targets()
	// Reuse the pre-rounded weight cache when recomputing against the layer's
	// own weights: MulPre(Round(a), Round(b)) == Mul(a, b) for every codec,
	// so the result is bit-identical.
	var rw []float32
	if w == l.W {
		rw = l.wcache.get(l.codec, l.W).rw
	}
	var acc float32
	for ky := 0; ky < l.KH; ky++ {
		iy := oy*l.Stride + ky - l.Pad
		if iy < 0 || iy >= h {
			continue
		}
		for kx := 0; kx < l.KW; kx++ {
			ix := ox*l.Stride + kx - l.Pad
			if ix < 0 || ix >= wd {
				continue
			}
			base := (iy*wd + ix) * l.InC
			if l.Depthwise {
				ioff := base + oc
				av := ind[ioff]
				if ioff == inFlat {
					av = ov.Value
				}
				woff := ((ky*l.KW+kx)*wc + oc) * woc
				switch {
				case woff == wFlat:
					acc += l.codec.Mul(av, ov.Value)
				case rw != nil:
					acc += l.codec.MulPre(l.codec.Round(av), rw[woff])
				default:
					acc += l.codec.Mul(av, wdat[woff])
				}
				continue
			}
			wbase := (ky*l.KW + kx) * wc * woc
			for ic := 0; ic < l.InC; ic++ {
				av := ind[base+ic]
				if base+ic == inFlat {
					av = ov.Value
				}
				woff := wbase + ic*woc + oc
				switch {
				case woff == wFlat:
					acc += l.codec.Mul(av, ov.Value)
				case rw != nil:
					acc += l.codec.MulPre(l.codec.Round(av), rw[woff])
				default:
					acc += l.codec.Mul(av, wdat[woff])
				}
			}
		}
	}
	return finishNeuron(l.codec, op.B, ov, oc, acc)
}

// NeuronsUsingOperand implements Site. Every reuse set of a convolution is a
// box of the output: rows × columns × channels, enumerated in that order,
// which is ascending offset order.
func (l *Conv2D) NeuronsUsingOperand(op *Operands, kind OperandKind, flat int, dst []int) []int {
	h, w := op.In.Dim(1), op.In.Dim(2)
	oh, ow := l.outHW(h, w)
	oy0, oy1, ox0, ox1, c0, c1 := 0, oh, 0, ow, 0, l.OutC
	switch kind {
	case OperandInput:
		ic, ix, iy := flat%l.InC, flat/l.InC%w, flat/(l.InC*w)
		// The output rows oy with oy*Stride + ky - Pad == iy for some ky in
		// [0,KH) are one range, and the columns likewise; all output channels
		// read the value, or its own one in a depthwise layer.
		oy0, oy1 = windowRange(iy, iy+1, l.KH, l.Stride, l.Pad, oh)
		ox0, ox1 = windowRange(ix, ix+1, l.KW, l.Stride, l.Pad, ow)
		if l.Depthwise {
			c0, c1 = ic, ic+1
		}
	case OperandWeight:
		// Every spatial position of the weight's output channel: the last
		// axis of W that is not 1 (InC of a depthwise layer).
		c0 = flat % l.OutC
		c1 = c0 + 1
	case OperandBias:
		c0, c1 = flat, flat+1
	case OperandOutput:
		return append(dst, flat)
	default:
		return dst
	}
	if oy0 >= oy1 || ox0 >= ox1 {
		return dst
	}
	dst = slices.Grow(dst, (oy1-oy0)*(ox1-ox0)*(c1-c0))
	for oy := oy0; oy < oy1; oy++ {
		for ox := ox0; ox < ox1; ox++ {
			pixel := (oy*ow + ox) * l.OutC
			for oc := c0; oc < c1; oc++ {
				dst = append(dst, pixel+oc)
			}
		}
	}
	return dst
}
