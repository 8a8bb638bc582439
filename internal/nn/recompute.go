package nn

// recompute.go implements Site.ComputeNeurons: the reuse set of a datapath
// fault recomputed by runs instead of one neuron at a time. The neurons a
// faulty input value reaches are all the output channels of a few pixels (all
// of a dense or matmul row), which is what the tile kernels compute in lanes;
// the neurons a faulty weight reaches are one channel of every pixel, whose
// weight column is gathered once. Either way the operands are rounded once per
// set, not once per product, and the products are formed by the tile kernels'
// own loops (mulAddPanel, dotRow) in ComputeNeuron's order, so every value
// equals ComputeNeuron's bit for bit (DESIGN.md §7.5). ComputeNeuron stays the
// definition, and the path of what the runs do not cover: a layer handed
// weights that are not its own (no rounded cache to read), the depthwise
// convolution (kh·kw products a neuron: nothing to amortize), and the one
// neuron of a run whose own weight is overridden.

import (
	"sync"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// recomputePool holds the scratch of ComputeNeurons calls on an operand set no
// context handed out: the rounded operand windows (in, w) and cargs.
var recomputePool = sync.Pool{New: func() any { return new(scratch) }}

// scratch returns the scratch of one ComputeNeurons call on op: that of the
// context whose hook op was handed to — the execution is over by then — or
// one from the pool, which release gives back.
func (op *Operands) scratch() *scratch {
	if op.sc != nil {
		return op.sc
	}
	return recomputePool.Get().(*scratch)
}

func (op *Operands) release(sc *scratch) {
	if op.sc == nil {
		recomputePool.Put(sc)
	}
}

// grow returns s with length n, reallocated when its capacity is short;
// contents are arbitrary.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// computeEach is ComputeNeurons by definition: one ComputeNeuron per neuron.
func computeEach(s Site, op *Operands, neurons []int, ov *Override, dst []float32) {
	for i, off := range neurons {
		dst[i] = s.ComputeNeuron(op, off, ov)
	}
}

// targets returns the flat operand offsets ov replaces, -1 (matching no
// offset) for the operands it does not touch. ov may be nil.
func (ov *Override) targets() (in, w int) {
	in, w = -1, -1
	if ov != nil {
		switch ov.Kind {
		case OperandInput:
			in = ov.Flat
		case OperandWeight:
			w = ov.Flat
		}
	}
	return in, w
}

// finishNeuron turns the accumulated products of output channel oc into the
// neuron's value: the bias (ov's, when it overrides this one) and the
// converter's saturation, as the tile kernels apply them.
func finishNeuron(codec numerics.Codec, bias *tensor.Tensor, ov *Override, oc int, acc float32) float32 {
	if bias != nil {
		bv := bias.Data()[oc]
		if ov != nil && ov.Kind == OperandBias && oc == ov.Flat {
			bv = ov.Value
		}
		acc += bv
	}
	return codec.Saturate(acc)
}

// runEnd returns the end of the maximal run that starts at neurons[lo]: the
// neurons at the consecutive offsets after it that stay in its vector of the
// output's last axis, width elements long.
func runEnd(neurons []int, lo, width int) int {
	first := neurons[lo]
	hi, end := lo+1, min(len(neurons), lo+width-first%width)
	for hi < end && neurons[hi] == first+hi-lo {
		hi++
	}
	return hi
}

// oneChannel reports whether every neuron lies at the same position of the
// output's last axis, width elements long: the reuse set of a weight, which
// the run split would cut into runs of one.
func oneChannel(neurons []int, width int) bool {
	c := neurons[0] % width
	for _, off := range neurons[1:] {
		if off%width != c {
			return false
		}
	}
	return true
}

// roundRow stores the codec's rounding of src in dst, with Round(ov.Value) at
// flat operand offset target when the row (which starts at offset base) holds
// it.
func roundRow(codec numerics.Codec, dst, src []float32, base, target int, ov *Override) {
	codec.RoundInto(dst, src)
	if target >= base && target < base+len(src) {
		dst[target-base] = codec.Round(ov.Value)
	}
}

// weightColumn gathers column c of the rounded (rows, stride) weight matrix rw
// into col, with Round(ov.Value) in place of the element at flat offset wFlat
// when the column holds it.
func weightColumn(codec numerics.Codec, col, rw []float32, stride, c, wFlat int, ov *Override) {
	for i := range col {
		col[i] = rw[i*stride+c]
	}
	if wFlat >= 0 && wFlat%stride == c {
		col[wFlat/stride] = codec.Round(ov.Value)
	}
}

// ComputeNeurons implements Site.
func (l *Conv2D) ComputeNeurons(op *Operands, neurons []int, ov *Override, dst []float32) {
	if len(neurons) == 0 {
		return
	}
	if op.W != l.W || l.Depthwise {
		computeEach(l, op, neurons, ov, dst)
		return
	}
	sc := op.scratch()
	defer op.release(sc)
	a := l.kernelArgs(&sc.cargs, op.In, op.Out, nil, 0)
	inFlat, wFlat := ov.targets()
	ind := op.In.Data()
	rowStride := a.w * a.inC
	imgSize := a.oh * a.ow * a.outC

	// A weight's reuse set: its output channel's weight column, contiguous,
	// against each pixel's contiguous input.
	var col []float32
	if oneChannel(neurons, a.outC) {
		sc.w = grow(sc.w, a.kh*a.kw*a.inC)
		col = sc.w
		weightColumn(l.codec, col, a.rw, a.outC, neurons[0]%a.outC, wFlat, ov)
	}

	for lo := 0; lo < len(neurons); {
		// The neurons of one batch image, and the input box they read.
		bi := neurons[lo] / imgSize
		hi := lo
		oy0, oy1, ox0, ox1 := a.oh, -1, a.ow, -1
		for ; hi < len(neurons) && neurons[hi]/imgSize == bi; hi++ {
			pix := neurons[hi] / a.outC
			oy, ox := pix/a.ow%a.oh, pix%a.ow
			oy0, oy1 = min(oy0, oy), max(oy1, oy)
			ox0, ox1 = min(ox0, ox), max(ox1, ox)
		}
		iy0, iy1 := max(oy0*a.stride-a.pd, 0), min(oy1*a.stride-a.pd+a.kh, a.h)
		ix0, ix1 := max(ox0*a.stride-a.pd, 0), min(ox1*a.stride-a.pd+a.kw, a.w)
		// Round that box once, at full-row pitch so that convPixel's indexing
		// holds; what lies outside the box is never read.
		a.rinOff = (bi*a.h + iy0) * rowStride
		if iy1 > iy0 && ix1 > ix0 {
			sc.in = grow(sc.in, (iy1-iy0)*rowStride)
			a.rin = sc.in
			for iy := iy0; iy < iy1; iy++ {
				base := ((bi*a.h+iy)*a.w + ix0) * a.inC
				seg := ind[base : base+(ix1-ix0)*a.inC]
				roundRow(l.codec, a.rin[base-a.rinOff:], seg, base, inFlat, ov)
			}
		}

		for i := lo; i < hi; {
			pix, c0 := neurons[i]/a.outC, neurons[i]%a.outC
			oy, ox := pix/a.ow%a.oh, pix%a.ow
			if col != nil {
				dst[i] = finishNeuron(l.codec, op.B, ov, c0, convColumn(a, col, bi, oy, ox))
				i++
				continue
			}
			end := runEnd(neurons[:hi], i, a.outC)
			run := dst[i:end]
			convPixel(a, bi, oy, ox, c0, run)
			for c, acc := range run {
				run[c] = finishNeuron(l.codec, op.B, ov, c0+c, acc)
			}
			// The cached weights cannot carry a weight override: the one
			// neuron of the run that multiplies by it is taken by definition.
			if oc := wFlat % a.outC; wFlat >= 0 && oc >= c0 && oc < c0+len(run) {
				run[oc-c0] = l.ComputeNeuron(op, neurons[i+oc-c0], ov)
			}
			i = end
		}
		lo = hi
	}
}

// convColumn accumulates the neuron at pixel (oy, ox) of batch image bi whose
// kh·kw·inC weights are col, in (ky, kx, ic) order: convPixel for one output
// channel, with the strided weight gather already done.
func convColumn(a *convArgs, col []float32, bi, oy, ox int) float32 {
	kyLo, kyHi := kernelSpan(oy, a.stride, a.pd, a.kh, a.h)
	kxLo, kxHi := kernelSpan(ox, a.stride, a.pd, a.kw, a.w)
	var acc float32
	if kxLo >= kxHi {
		return acc
	}
	for ky := kyLo; ky < kyHi; ky++ {
		iy := oy*a.stride + ky - a.pd
		inBase := ((bi*a.h+iy)*a.w+ox*a.stride+kxLo-a.pd)*a.inC - a.rinOff
		wBase := (ky*a.kw + kxLo) * a.inC
		n := (kxHi - kxLo) * a.inC
		acc = dotRow(a.fp16, acc, a.rin[inBase:inBase+n], col[wBase:wBase+n])
	}
	return acc
}

// ComputeNeurons implements Site.
func (l *Dense) ComputeNeurons(op *Operands, neurons []int, ov *Override, dst []float32) {
	if len(neurons) == 0 {
		return
	}
	if op.W != l.W {
		computeEach(l, op, neurons, ov, dst)
		return
	}
	sc := op.scratch()
	defer op.release(sc)
	rw := l.wcache.get(l.codec, l.W)
	fp16 := l.codec.Precision() == numerics.FP16
	inFlat, wFlat := ov.targets()
	ind := op.In.Data()

	var col []float32
	if oneChannel(neurons, l.Out) {
		sc.w = grow(sc.w, l.In)
		col = sc.w
		weightColumn(l.codec, col, rw.rw, l.Out, neurons[0]%l.Out, wFlat, ov)
	}

	sc.in = grow(sc.in, l.In)
	rin, rounded := sc.in, -1
	for i := 0; i < len(neurons); {
		b, o0 := neurons[i]/l.Out, neurons[i]%l.Out
		if b != rounded {
			roundRow(l.codec, rin, ind[b*l.In:(b+1)*l.In], b*l.In, inFlat, ov)
			rounded = b
		}
		if col != nil {
			dst[i] = finishNeuron(l.codec, op.B, ov, o0, dotRow(fp16, 0, rin, col))
			i++
			continue
		}
		end := runEnd(neurons, i, l.Out)
		run := dst[i:end]
		clear(run)
		mulAddPanel(fp16, rw.thr, run, rin, rw.rw[o0:], l.Out)
		for c, acc := range run {
			run[c] = finishNeuron(l.codec, op.B, ov, o0+c, acc)
		}
		// See Conv2D.ComputeNeurons.
		if o := wFlat % l.Out; wFlat >= 0 && o >= o0 && o < o0+len(run) {
			run[o-o0] = l.ComputeNeuron(op, neurons[i+o-o0], ov)
		}
		i = end
	}
}

// ComputeNeurons implements Site. Operand B is an activation: there is no
// rounded cache, so the columns of B a run multiplies by are rounded here, as
// Run rounds all of it, and an override of B is patched into them.
func (l *MatMulSite) ComputeNeurons(op *Operands, neurons []int, ov *Override, dst []float32) {
	if len(neurons) == 0 {
		return
	}
	sc := op.scratch()
	defer op.release(sc)
	fp16 := l.codec.Precision() == numerics.FP16
	inFlat, wFlat := ov.targets()
	ad, bd := op.In.Data(), op.W.Data()
	k, bcols, n := op.In.Dim(1), op.W.Dim(1), l.cols(op.W)

	// roundB stores in sc.w, as a k×(j1-j0) panel, the part of B that output
	// columns [j0, j1) multiply by: the k rows of B cut down to those columns,
	// or their k-long rows of Bᵀ transposed as Run transposes all of them.
	roundB := func(j0, j1 int) []float32 {
		w := j1 - j0
		rb := grow(sc.w, k*w)
		sc.w = rb
		if l.TransposeB {
			transposeInto(rb, bd[j0*k:j1*k], w, k)
			if wFlat >= j0*k && wFlat < j1*k {
				rb[wFlat%k*w+wFlat/k-j0] = ov.Value
			}
			l.codec.RoundInto(rb, rb)
			return rb
		}
		for p := 0; p < k; p++ {
			roundRow(l.codec, rb[p*w:], bd[p*bcols+j0:p*bcols+j1], p*bcols+j0, wFlat, ov)
		}
		return rb
	}
	var col []float32
	if oneChannel(neurons, n) {
		col = roundB(neurons[0]%n, neurons[0]%n+1)
	}

	sc.in = grow(sc.in, k)
	rin, rounded := sc.in, -1
	for i := 0; i < len(neurons); {
		row, j0 := neurons[i]/n, neurons[i]%n
		if row != rounded {
			roundRow(l.codec, rin, ad[row*k:(row+1)*k], row*k, inFlat, ov)
			rounded = row
		}
		end := i + 1
		if col != nil {
			dst[i] = dotRow(fp16, 0, rin, col)
		} else {
			end = runEnd(neurons, i, n)
			run := dst[i:end]
			clear(run)
			mulAddPanel(fp16, nil, run, rin, roundB(j0, j0+len(run)), len(run))
		}
		scaleSaturate(l.codec, l.ScaleOut, dst[i:end])
		i = end
	}
}
