package nn

import (
	"fmt"
	"math/rand"

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
		flat := x.Reshape(batch, l.In)
		out := ctx.newTensor(batch, l.Out)
		op := &Operands{In: flat, W: l.W, B: l.B, Out: out}

		// Fast path: pre-rounded operands, per-output-neuron accumulation in
		// the same order as ComputeNeuron (bit-identical; see Conv2D.Forward).
		rin := l.codec.RoundSlice(flat.Data())
		rw := l.wcache.get(l.codec, l.W)
		if UseReferenceKernels() {
			denseForwardRef(l, out, rin, rw.rw, batch)
		} else {
			var bias []float32
			if l.B != nil {
				bias = l.B.Data()
			}
			denseForward(&denseArgs{
				rin: rin, rw: rw.rw, bias: bias, out: out.Data(),
				batch: batch, in: l.In, outN: l.Out,
				fp16:     l.codec.Precision() == numerics.FP16,
				skipZero: rw.finite, codec: l.codec,
			})
		}
		ctx.fire(l, op)
		return out
	}, func(out *tensor.Tensor) *Operands {
		return &Operands{In: x.Reshape(batch, l.In), W: l.W, B: l.B, Out: out}
	}, x)
}

// ComputeNeuron implements Site.
func (l *Dense) ComputeNeuron(op *Operands, idx []int, ov *Override) float32 {
	b, o := idx[0], idx[1]
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
func (l *Dense) NeuronsUsingOperand(op *Operands, kind OperandKind, flat int) [][]int {
	batch := op.In.Dim(0)
	switch kind {
	case OperandInput:
		b := flat / l.In
		out := indexTuples(l.Out, 2)
		for o, idx := range out {
			idx[0], idx[1] = b, o
		}
		return out
	case OperandWeight, OperandBias:
		o := flat // the bias element is the neuron's column
		if kind == OperandWeight {
			o = flat % l.Out
		}
		out := indexTuples(batch, 2)
		for b, idx := range out {
			idx[0], idx[1] = b, o
		}
		return out
	case OperandOutput:
		return [][]int{op.Out.Unflatten(flat)}
	}
	return nil
}
