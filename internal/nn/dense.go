package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Dense is a fully connected layer: out[b, o] = Σ_i in[b, i]·W[i, o] + B[o].
// Inputs of higher rank are flattened per batch. In NVDLA, FC layers run on
// the same convolution pipeline (a 1×1 convolution over a 1×1 feature map),
// so Dense shares the Conv fault-model categories with FC-specific neuron
// patterns (paper Table II, "FC" rows).
type Dense struct {
	name    string
	In, Out int

	W *tensor.Tensor // (In, Out)
	B *tensor.Tensor // (Out), may be nil

	codec  numerics.Codec
	wcache weightCache
}

// InvalidateWeights drops the rounded-weight cache. Call after mutating W.
func (l *Dense) InvalidateWeights() { l.wcache.p.Store(nil) }

// NewDense builds a fully connected layer with zero parameters.
func NewDense(name string, in, out int, codec numerics.Codec) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense geometry %d->%d", in, out))
	}
	return &Dense{
		name: name, In: in, Out: out,
		W:     tensor.New(in, out),
		B:     tensor.New(out),
		codec: codec,
	}
}

// InitRandom fills weights with N(0, stddev²).
func (l *Dense) InitRandom(rng *rand.Rand, stddev float32) *Dense {
	l.W.RandNormal(rng, stddev)
	if l.B != nil {
		l.B.RandNormal(rng, stddev/4)
	}
	l.InvalidateWeights()
	return l
}

// Name implements Layer.
func (l *Dense) Name() string { return l.name }

// Kind implements Site.
func (l *Dense) Kind() Kind { return KindFC }

// Codec implements Site.
func (l *Dense) Codec() numerics.Codec { return l.codec }

// Forward implements Layer.
func (l *Dense) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	batch := x.Dim(0)
	if x.Size()/batch != l.In {
		panic(fmt.Sprintf("nn: %s expects %d features, got shape %v", l.name, l.In, x.Shape()))
	}
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(batch, l.Out)
		// Fast path: pre-rounded operands, per-output-neuron accumulation in
		// the same order as ComputeNeuron (bit-identical; see Conv2D.Forward).
		sc := ctx.scratch()
		rin := round(&sc.in, l.codec, x.Data())
		rw := l.wcache.get(l.codec, l.W)
		if UseReferenceKernels() {
			denseForwardRef(l, out, rin, rw.rw, batch)
		} else {
			var bias []float32
			if l.B != nil {
				bias = l.B.Data()
			}
			sc.dargs = denseArgs{
				rin: rin, rw: rw.rw, bias: bias, out: out.Data(),
				batch: batch, in: l.In, outN: l.Out,
				fp16: l.codec.Precision() == numerics.FP16,
				thr:  rw.thr, codec: l.codec,
			}
			denseForward(&sc.dargs)
		}
		ctx.fire(l, sc.operands(l.matrix(x), l.W, l.B, out))
		return out
	}, func(out *tensor.Tensor) *Operands {
		return ctx.scratch().operands(l.matrix(x), l.W, l.B, out)
	}, x)
}

// matrix returns x as the (batch, In) input the hook sees: x itself when it is
// rank 2 already, a view otherwise.
func (l *Dense) matrix(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() == 2 {
		return x
	}
	return x.Reshape(x.Dim(0), l.In)
}

// ComputeNeuron implements Site.
func (l *Dense) ComputeNeuron(op *Operands, off int, ov *Override) float32 {
	b, o := off/l.Out, off%l.Out
	in := op.In
	// Reuse the pre-rounded weight cache; bit-identical via the MulPre
	// invariant (see Conv2D.ComputeNeuron).
	var rw []float32
	if op.W == l.W {
		rw = l.wcache.get(l.codec, l.W).rw
	}
	// Flat row-major indexing: the variadic accessors allocate per call and
	// this is the per-fault hot loop (see Conv2D.ComputeNeuron).
	ind, wdat := in.Data(), op.W.Data()
	wo := op.W.Dim(1)
	inFlat, wFlat := ov.targets()
	base := b * l.In
	var acc float32
	for i := 0; i < l.In; i++ {
		av := ind[base+i]
		if base+i == inFlat {
			av = ov.Value
		}
		woff := i*wo + o
		switch {
		case woff == wFlat:
			acc += l.codec.Mul(av, ov.Value)
		case rw != nil:
			acc += l.codec.MulPre(l.codec.Round(av), rw[woff])
		default:
			acc += l.codec.Mul(av, wdat[woff])
		}
	}
	return finishNeuron(l.codec, op.B, ov, o, acc)
}

// NeuronsUsingOperand implements Site. Per Table II: a faulty input value
// affects all neurons of its batch row; a faulty weight value W[i,o] affects
// neuron o in every batch.
func (l *Dense) NeuronsUsingOperand(op *Operands, kind OperandKind, flat int, dst []int) []int {
	switch kind {
	case OperandInput:
		row := flat / l.In * l.Out
		return appendStrided(dst, row, 1, l.Out)
	case OperandWeight, OperandBias:
		o := flat // the bias element is the neuron's column
		if kind == OperandWeight {
			o = flat % l.Out
		}
		return appendStrided(dst, o, l.Out, op.In.Dim(0))
	case OperandOutput:
		return append(dst, flat)
	}
	return dst
}

// appendStrided appends the n offsets first, first+stride, … to dst: a row of
// a rank-2 output (stride 1) or a column of it (stride the row width).
func appendStrided(dst []int, first, stride, n int) []int {
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, first+i*stride)
	}
	return dst
}
