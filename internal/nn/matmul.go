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
		// Fast path (bit-identical to per-neuron ComputeNeuron; see
		// Conv2D.Forward). No rounded-weight cache here: operand B is an
		// activation that changes every pass, so both operands are rounded
		// into the context's scratch.
		sc := ctx.scratch()
		ra := round(&sc.in, l.codec, a.Data())
		if UseReferenceKernels() {
			matmulForwardRef(l, out, ra, round(&sc.w, l.codec, b.Data()), m, k, n)
		} else {
			// The tiled kernel takes B as k×n: a TransposeB operand is
			// transposed here, once, so that every row of the product is one
			// panel (DESIGN.md §7.1.2). Rounding is element-wise: it commutes.
			bd := b.Data()
			if l.TransposeB {
				sc.w = grow(sc.w, k*n)
				bd = sc.w
				transposeInto(bd, b.Data(), n, k)
			}
			sc.margs = matmulArgs{
				ra: ra, rb: round(&sc.w, l.codec, bd), out: out.Data(),
				m: m, k: k, n: n,
				scaleOut: l.ScaleOut,
				fp16:     l.codec.Precision() == numerics.FP16,
				codec:    l.codec,
			}
			matmulForward(&sc.margs)
		}
		ctx.fire(l, sc.operands(a, b, nil, out))
		return out
	}, func(out *tensor.Tensor) *Operands {
		return ctx.scratch().operands(a, b, nil, out)
	}, a, b)
}

// cols returns the product's column count for second operand b.
func (l *MatMulSite) cols(b *tensor.Tensor) int {
	if l.TransposeB {
		return b.Dim(0)
	}
	return b.Dim(1)
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
func (l *MatMulSite) ComputeNeuron(op *Operands, off int, ov *Override) float32 {
	a, b := op.In, op.W
	n := l.cols(b)
	i, j := off/n, off%n
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
func (l *MatMulSite) NeuronsUsingOperand(op *Operands, kind OperandKind, flat int, dst []int) []int {
	n := l.cols(op.W)
	switch kind {
	case OperandInput:
		return appendStrided(dst, flat/op.In.Dim(1)*n, 1, n)
	case OperandWeight:
		j := flat % op.W.Dim(1) // column of the product
		if l.TransposeB {
			j = flat / op.W.Dim(1)
		}
		return appendStrided(dst, j, n, op.In.Dim(0))
	case OperandOutput:
		return append(dst, flat)
	}
	return dst
}
