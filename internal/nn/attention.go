package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product self-attention over a
// (seq, dModel) input. The QKᵀ and attention·V products execute as MatMul
// sites — the paper's "MatMul layer in attention" validation workload
// (Table III) — while the Q/K/V/output projections are Dense (FC) sites.
type MultiHeadAttention struct {
	name   string
	Heads  int
	DModel int

	WQ, WK, WV, WO *Dense
	QK, AV         *MatMulSite
	codec          numerics.Codec
}

// NewMultiHeadAttention builds an attention block. dModel must be divisible
// by heads.
func NewMultiHeadAttention(name string, dModel, heads int, codec numerics.Codec) *MultiHeadAttention {
	if heads <= 0 || dModel%heads != 0 {
		panic(fmt.Sprintf("nn: dModel %d not divisible by heads %d", dModel, heads))
	}
	dHead := dModel / heads
	return &MultiHeadAttention{
		name: name, Heads: heads, DModel: dModel,
		WQ:    NewDense(name+"/wq", dModel, dModel, codec),
		WK:    NewDense(name+"/wk", dModel, dModel, codec),
		WV:    NewDense(name+"/wv", dModel, dModel, codec),
		WO:    NewDense(name+"/wo", dModel, dModel, codec),
		QK:    NewMatMulSite(name+"/qk", true, 1/float32(math.Sqrt(float64(dHead))), codec),
		AV:    NewMatMulSite(name+"/av", false, 0, codec),
		codec: codec,
	}
}

// InitRandom fills all projection weights.
func (l *MultiHeadAttention) InitRandom(rng *rand.Rand, stddev float32) *MultiHeadAttention {
	l.WQ.InitRandom(rng, stddev)
	l.WK.InitRandom(rng, stddev)
	l.WV.InitRandom(rng, stddev)
	l.WO.InitRandom(rng, stddev)
	return l
}

// children lists sub-layers for site enumeration.
func (l *MultiHeadAttention) children() []Layer {
	return []Layer{l.WQ, l.WK, l.WV, l.QK, l.AV, l.WO}
}

// Name implements Layer.
func (l *MultiHeadAttention) Name() string { return l.name }

// Forward implements Layer over a (seq, dModel) input.
func (l *MultiHeadAttention) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.DModel {
		panic(fmt.Sprintf("nn: %s expects (seq,%d), got %v", l.name, l.DModel, x.Shape()))
	}
	q := l.WQ.Forward(x, ctx)
	k := l.WK.Forward(x, ctx)
	v := l.WV.Forward(x, ctx)

	dHead := l.DModel / l.Heads
	headsOut := ctx.pathOuts(l.Heads)
	for h := 0; h < l.Heads; h++ {
		start := h * dHead
		qh := ctx.glue(l, func() *tensor.Tensor { return sliceCols(ctx, q, start, dHead) },
			func(g *tensor.Tensor, r box) *tensor.Tensor { return sliceSweep(ctx, g, r, q, start) }, q)
		kh := ctx.glue(l, func() *tensor.Tensor { return sliceCols(ctx, k, start, dHead) },
			func(g *tensor.Tensor, r box) *tensor.Tensor { return sliceSweep(ctx, g, r, k, start) }, k)
		vh := ctx.glue(l, func() *tensor.Tensor { return sliceCols(ctx, v, start, dHead) },
			func(g *tensor.Tensor, r box) *tensor.Tensor { return sliceSweep(ctx, g, r, v, start) }, v)
		scores := l.QK.Run(qh, kh, ctx)                         // (seq, seq), scaled by 1/√dHead
		headsOut[h] = l.AV.Run(l.softmax(ctx, scores), vh, ctx) // (seq, dHead)
	}
	concat := ctx.glue(l, func() *tensor.Tensor {
		o := ctx.slot(l)
		return o.keep(tensor.Concat(o.buf(), 1, headsOut...))
	}, func(g *tensor.Tensor, r box) *tensor.Tensor { return concatSweep(ctx, l, g, r, headsOut) }, headsOut...)
	ctx.dropPaths(headsOut)
	return l.WO.Forward(concat, ctx)
}

// sliceCols copies columns [start, start+n) of a rank-2 tensor.
func sliceCols(ctx *Context, t *tensor.Tensor, start, n int) *tensor.Tensor {
	out := ctx.newTensor(t.Dim(0), n)
	copyCols(out, t, start, 0, t.Dim(0))
	return out
}

// sliceSweep is the glue sweep of sliceCols: a copy of golden from the arena,
// where sliceCols takes its output, with the region's rows sliced anew from t.
func sliceSweep(ctx *Context, golden *tensor.Tensor, r box, t *tensor.Tensor, start int) *tensor.Tensor {
	out := ctx.goldenCopy(golden)
	r.runs(out, func(r0, r1 int) { copyCols(out, t, start, r0, r1) })
	return out
}

// copyCols copies columns [start, start+n) of rows [r0, r1) of t into the
// same rows of out, n columns wide.
func copyCols(out, t *tensor.Tensor, start, r0, r1 int) {
	n, cols := out.Dim(1), t.Dim(1)
	od, td := out.Data(), t.Data()
	for r := r0; r < r1; r++ {
		copy(od[r*n:(r+1)*n], td[r*cols+start:r*cols+start+n])
	}
}

// softmax is the glue step of one head's row softmax over its scores.
func (l *MultiHeadAttention) softmax(ctx *Context, scores *tensor.Tensor) *tensor.Tensor {
	return ctx.glue(l, func() *tensor.Tensor {
		o := ctx.slot(l)
		return o.keep(tensor.Softmax(o.buf(), scores))
	}, func(g *tensor.Tensor, r box) *tensor.Tensor { return softmaxSweep(ctx, l, g, r, scores) }, scores)
}

// softmaxSweep is l's glue sweep of tensor.Softmax: the step's owned buffer,
// where the full compute writes too, equal to golden but in the region's
// rows, which it recomputes from scores.
func softmaxSweep(ctx *Context, l Layer, golden *tensor.Tensor, r box, scores *tensor.Tensor) *tensor.Tensor {
	out := ctx.sweepBuf(l, golden, r)
	od, sd, n := out.Data(), scores.Data(), out.Dim(1)
	r.runs(out, func(r0, r1 int) {
		copy(od[r0*n:r1*n], sd[r0*n:r1*n])
		tensor.SoftmaxRows(out, r0, r1)
	})
	return out
}

// FeedForward is the Transformer position-wise feed-forward block:
// Dense→ReLU→Dense with a residual add and layer norm handled by the caller.
type FeedForward struct {
	name   string
	Inner  *Dense
	Outer  *Dense
	Act    *Activation
	DModel int
}

// NewFeedForward builds a position-wise FFN with hidden width dff.
func NewFeedForward(name string, dModel, dff int, codec numerics.Codec) *FeedForward {
	return &FeedForward{
		name:   name,
		Inner:  NewDense(name+"/ff1", dModel, dff, codec),
		Outer:  NewDense(name+"/ff2", dff, dModel, codec),
		Act:    NewReLU(name+"/relu", codec),
		DModel: dModel,
	}
}

// InitRandom fills both projections.
func (l *FeedForward) InitRandom(rng *rand.Rand, stddev float32) *FeedForward {
	l.Inner.InitRandom(rng, stddev)
	l.Outer.InitRandom(rng, stddev)
	return l
}

// children implements container.
func (l *FeedForward) children() []Layer { return []Layer{l.Inner, l.Act, l.Outer} }

// Name implements Layer.
func (l *FeedForward) Name() string { return l.name }

// Forward implements Layer.
func (l *FeedForward) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	h := l.Inner.Forward(x, ctx)
	h = l.Act.Forward(h, ctx)
	return l.Outer.Forward(h, ctx)
}
