package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Residual computes Body(x) + Shortcut(x) (identity shortcut when Shortcut is
// nil), the ResNet building block.
type Residual struct {
	name     string
	Body     Layer
	Shortcut Layer // nil means identity
	codec    numerics.Codec
}

// NewResidual builds a residual block.
func NewResidual(name string, body, shortcut Layer, codec numerics.Codec) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut, codec: codec}
}

// Name implements Layer.
func (l *Residual) Name() string { return l.name }

// children implements container.
func (l *Residual) children() []Layer { return []Layer{l.Body, l.Shortcut} }

// Forward implements Layer.
func (l *Residual) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	b := l.Body.Forward(x, ctx)
	s := x
	if l.Shortcut != nil {
		s = l.Shortcut.Forward(x, ctx)
	}
	return ctx.glue(l, func() *tensor.Tensor {
		out := ctx.newTensor(b.Shape()...)
		l.add(out.Data(), b.Data(), s.Data())
		return out
	}, func(golden *tensor.Tensor, r box) *tensor.Tensor {
		out := ctx.goldenCopy(golden)
		od, bd, sd, c := out.Data(), b.Data(), s.Data(), out.Dim(out.Rank()-1)
		r.runs(out, func(p0, p1 int) { l.add(od[p0*c:p1*c], bd[p0*c:p1*c], sd[p0*c:p1*c]) })
		return out
	}, b, s)
}

// add stores Round(b[i] + s[i]) in out[i] over a run of elements.
func (l *Residual) add(out, b, s []float32) {
	numerics.AddRow(out, b[:len(out)], s)
	l.codec.RoundInto(out, out)
}

// Branches runs several paths on the same input and concatenates their
// outputs along the channel axis — the Inception module topology.
type Branches struct {
	name  string
	Paths []Layer
	Axis  int
}

// NewBranches builds a branch-and-concat block (axis 3 = NHWC channels).
func NewBranches(name string, axis int, paths ...Layer) *Branches {
	if len(paths) == 0 {
		panic("nn: Branches requires at least one path")
	}
	return &Branches{name: name, Paths: paths, Axis: axis}
}

// Name implements Layer.
func (l *Branches) Name() string { return l.name }

// children implements container.
func (l *Branches) children() []Layer { return l.Paths }

// Forward implements Layer.
func (l *Branches) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	paths := l.Paths
	outs := ctx.pathOuts(len(paths))[:len(paths)]
	for i, p := range paths {
		outs[i] = p.Forward(x, ctx)
	}
	out := ctx.glue(l, func() *tensor.Tensor {
		o := ctx.slot(l)
		return o.keep(tensor.Concat(o.buf(), l.Axis, outs...))
	}, func(golden *tensor.Tensor, r box) *tensor.Tensor {
		return concatSweep(ctx, l, golden, r, outs)
	}, outs...)
	ctx.dropPaths(outs)
	return out
}

// concatSweep is l's glue sweep of tensor.Concat along the last axis: the
// step's owned buffer, where the full compute writes too, equal to golden
// but at the region's positions, which it concatenates anew from ts.
func concatSweep(ctx *Context, l Layer, golden *tensor.Tensor, r box, ts []*tensor.Tensor) *tensor.Tensor {
	out := ctx.sweepBuf(l, golden, r)
	od, w := out.Data(), out.Dim(out.Rank()-1)
	r.runs(out, func(p0, p1 int) {
		off := 0
		for _, t := range ts {
			td, c := t.Data(), t.Dim(t.Rank()-1)
			for p := p0; p < p1; p++ {
				copy(od[p*w+off:p*w+off+c], td[p*c:(p+1)*c])
			}
			off += c
		}
	})
	return out
}

// BatchNorm applies a folded batch normalization: per-channel scale and
// shift (inference-time form). Operates on the last dimension.
type BatchNorm struct {
	name         string
	Scale, Shift *tensor.Tensor
	codec        numerics.Codec
}

// NewBatchNorm builds a folded batch-norm over c channels, initialized to
// identity.
func NewBatchNorm(name string, c int, codec numerics.Codec) *BatchNorm {
	l := &BatchNorm{name: name, Scale: tensor.New(c), Shift: tensor.New(c), codec: codec}
	l.Scale.Fill(1)
	return l
}

// InitRandom perturbs scale and shift to mimic trained statistics.
func (l *BatchNorm) InitRandom(rng *rand.Rand) *BatchNorm {
	for i := 0; i < l.Scale.Size(); i++ {
		l.Scale.Set(0.8+0.4*rng.Float32(), i)
		l.Shift.Set(0.2*float32(rng.NormFloat64()), i)
	}
	return l
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return l.name }

// Forward implements Layer.
func (l *BatchNorm) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	c := x.Dim(x.Rank() - 1)
	if c != l.Scale.Size() {
		panic(fmt.Sprintf("nn: %s expects %d channels, got %v", l.name, l.Scale.Size(), x.Shape()))
	}
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(x.Shape()...)
		l.apply(out.Data(), x.Data(), c)
		return out
	}, nil, x)
}

// apply stores Round(x[i]*scale + shift) in out[i] over a run of whole
// c-channel rows, the rounding over the whole run at once (Codec.RoundInto).
// Row-sliced with hoisted scale/shift buffers: no per-element modulo or
// bounds checks; same formula per element as the naive loop.
func (l *BatchNorm) apply(out, x []float32, c int) {
	out = out[:len(x)]
	sc := l.Scale.Data()[:c]
	sh := l.Shift.Data()[:c]
	for base := 0; base+c <= len(x); base += c {
		xrow, orow := x[base:base+c], out[base:base+c]
		for i, v := range xrow {
			orow[i] = v*sc[i] + sh[i]
		}
	}
	l.codec.RoundInto(out, out)
}

// LayerNorm normalizes over the last dimension with learned scale/shift —
// the Transformer normalization.
type LayerNorm struct {
	name         string
	Scale, Shift *tensor.Tensor
	Eps          float32
}

// NewLayerNorm builds a layer norm over dim features, initialized to
// identity.
func NewLayerNorm(name string, dim int) *LayerNorm {
	l := &LayerNorm{name: name, Scale: tensor.New(dim), Shift: tensor.New(dim), Eps: 1e-5}
	l.Scale.Fill(1)
	return l
}

// Name implements Layer.
func (l *LayerNorm) Name() string { return l.name }

// Forward implements Layer.
func (l *LayerNorm) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	d := x.Dim(x.Rank() - 1)
	if d != l.Scale.Size() {
		panic(fmt.Sprintf("nn: %s expects %d features, got %v", l.name, l.Scale.Size(), x.Shape()))
	}
	rows := x.Size() / d
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(x.Shape()...)
		data := out.Data()
		copy(data, x.Data())
		l.normalize(data, rows, d)
		return out
	}, nil, x)
}

func (l *LayerNorm) normalize(data []float32, rows, d int) {
	scale, shift := l.Scale.Data()[:d], l.Shift.Data()[:d]
	for r := 0; r < rows; r++ {
		row := data[r*d : (r+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varsum float64
		for _, v := range row {
			dv := float64(v) - mean
			varsum += dv * dv
		}
		inv := 1 / float32(math.Sqrt(varsum/float64(d)+float64(l.Eps)))
		for i, v := range row {
			row[i] = (v-float32(mean))*inv*scale[i] + shift[i]
		}
	}
}

// ZeroPad pads an NHWC tensor spatially by P on each side.
type ZeroPad struct {
	name string
	P    int
}

// NewZeroPad builds a spatial zero-padding layer.
func NewZeroPad(name string, p int) *ZeroPad { return &ZeroPad{name: name, P: p} }

// Name implements Layer.
func (l *ZeroPad) Name() string { return l.name }

// Forward implements Layer.
func (l *ZeroPad) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.exec(l, func() *tensor.Tensor {
		o := ctx.slot(l)
		return o.keep(tensor.Pad2D(o.buf(), x, l.P))
	}, nil, x)
}
