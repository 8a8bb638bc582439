package nn

import (
	"fmt"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// MatMulSite is a binary matrix-multiplication injection site used inside
// attention blocks: Out = A·B (or A·Bᵀ when TransposeB is set). On NVDLA a
// matmul executes on the convolution pipeline with B streamed through the
// weight port, so A maps to the "input" variable type and B to "weight" in
// the Table II MatMul fault models.
//
// MatMulSite does not implement Layer directly (it has two operands); the
// owning composite layer calls Run.
type MatMulSite struct {
	name       string
	TransposeB bool
	ScaleOut   float32 // applied to every output (e.g. 1/√d); 0 means 1
	codec      numerics.Codec
}

// NewMatMulSite builds a matmul site.
func NewMatMulSite(name string, transposeB bool, scale float32, codec numerics.Codec) *MatMulSite {
	return &MatMulSite{name: name, TransposeB: transposeB, ScaleOut: scale, codec: codec}
}

// Name implements Layer naming for site enumeration.
func (l *MatMulSite) Name() string { return l.name }

// Kind implements Site.
func (l *MatMulSite) Kind() Kind { return KindMatMul }

// Codec implements Site.
func (l *MatMulSite) Codec() numerics.Codec { return l.codec }

// Forward implements Layer so MatMulSite satisfies the Site interface, but a
// matmul needs two operands; use Run instead.
func (l *MatMulSite) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	panic("nn: MatMulSite must be executed via Run, not Forward")
}

// Run computes A·B (A: m×k; B: k×n, or n×k with TransposeB) and fires the
// injection hook with A as the input operand and B as the weight operand.
func (l *MatMulSite) Run(a, b *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s requires rank-2 operands, got %v×%v", l.name, a.Shape(), b.Shape()))
	}
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	bk := b.Dim(0)
	if l.TransposeB {
		n, bk = b.Dim(0), b.Dim(1)
	}
	if bk != k {
		panic(fmt.Sprintf("nn: %s inner dims %d vs %d", l.name, k, bk))
	}
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(m, n)
		op := &Operands{In: a, W: b, Out: out}

		// Fast path (bit-identical to per-neuron ComputeNeuron; see
		// Conv2D.Forward). No rounded-weight cache here: operand B is an
		// activation that changes every pass, so both operands are rounded
		// into pooled scratch, given back before the hook (whose recompute
		// draws on the same pool) runs.
		sc := recomputePool.Get().(*recomputeScratch)
		sc.in, sc.w = grow(sc.in, m*k), grow(sc.w, k*n)
		ra, rb := sc.in, sc.w
		l.codec.RoundInto(ra, a.Data())
		if UseReferenceKernels() {
			l.codec.RoundInto(rb, b.Data())
			matmulForwardRef(l, out, ra, rb, m, k, n)
		} else {
			// The tiled kernel takes B as k×n: a TransposeB operand is
			// transposed here, once, so that every row of the product is one
			// panel (DESIGN.md §7.6). Rounding is element-wise: it commutes.
			bd := b.Data()
			if l.TransposeB {
				transposeInto(rb, bd, n, k)
				bd = rb
			}
			l.codec.RoundInto(rb, bd)
			matmulForward(&matmulArgs{
				ra: ra, rb: rb, out: out.Data(),
				m: m, k: k, n: n,
				scaleOut: l.ScaleOut,
				fp16:     l.codec.Precision() == numerics.FP16,
				codec:    l.codec,
			})
		}
		recomputePool.Put(sc)
		ctx.fire(l, op)
		return out
	}, func(out *tensor.Tensor) *Operands {
		return &Operands{In: a, W: b, Out: out}
	}, a, b)
}

// transposeInto stores the rows×cols matrix src in dst as cols×rows.
func transposeInto(dst, src []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// ComputeNeuron implements Site.
func (l *MatMulSite) ComputeNeuron(op *Operands, idx []int, ov *Override) float32 {
	i, j := idx[0], idx[1]
	a, b := op.In, op.W
	k := a.Dim(1)
	// Flat row-major indexing: the variadic accessors allocate per call and
	// this is the per-fault hot loop (see Conv2D.ComputeNeuron).
	ad, bd := a.Data(), b.Data()
	bcols := b.Dim(1)
	inFlat, wFlat := ov.targets()
	abase := i * k
	var acc float32
	for p := 0; p < k; p++ {
		av := ad[abase+p]
		if abase+p == inFlat {
			av = ov.Value
		}
		var woff int
		if l.TransposeB {
			woff = j*bcols + p
		} else {
			woff = p*bcols + j
		}
		wv := bd[woff]
		if woff == wFlat {
			wv = ov.Value
		}
		acc += l.codec.Mul(av, wv)
	}
	if l.ScaleOut != 0 {
		acc *= l.ScaleOut
	}
	return l.codec.Saturate(acc)
}

// NeuronsUsingOperand implements Site. Per Table II: a faulty A element
// affects all neurons in its output row; a faulty B element affects all
// neurons in its output column.
func (l *MatMulSite) NeuronsUsingOperand(op *Operands, kind OperandKind, flat int) [][]int {
	m := op.In.Dim(0)
	n := op.W.Dim(1)
	if l.TransposeB {
		n = op.W.Dim(0)
	}
	switch kind {
	case OperandInput:
		i := flat / op.In.Dim(1)
		out := indexTuples(n, 2)
		for j, idx := range out {
			idx[0], idx[1] = i, j
		}
		return out
	case OperandWeight:
		j := flat % op.W.Dim(1) // column of the product
		if l.TransposeB {
			j = flat / op.W.Dim(1)
		}
		out := indexTuples(m, 2)
		for i, idx := range out {
			idx[0], idx[1] = i, j
		}
		return out
	case OperandOutput:
		return [][]int{op.Out.Unflatten(flat)}
	}
	return nil
}
