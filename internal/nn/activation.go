package nn

import (
	"fmt"
	"math"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Activation applies an elementwise function and rounds the result through
// the datapath codec (activations pass through SDP registers in NVDLA).
type Activation struct {
	name string
	// row stores f(x[i]) in out[i] for every i in x; out is as long as x and
	// may be x itself.
	row   func(out, x []float32)
	codec numerics.Codec
}

// Name implements Layer.
func (l *Activation) Name() string { return l.name }

// Forward implements Layer.
func (l *Activation) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(x.Shape()...)
		l.apply(out.Data(), x.Data())
		return out
	}, nil, x)
}

// apply stores Round(f(x[i])) in out[i] for every i in x: the function and
// the rounding (Codec.RoundInto) each over the whole run at once.
func (l *Activation) apply(out, x []float32) {
	out = out[:len(x)]
	l.row(out, x)
	l.codec.RoundInto(out, out)
}

// The rectifiers are plain compares, not the min and max builtins: those
// propagate NaN and order the zeros, and what a rectifier makes of NaN and of
// -0 is part of what a fault propagates. ReLU sends both to +0; ReLU6 and the
// clamp pass both through; the leaky rectifier scales them. ReLU, ReLU6 and the
// clamp are numerics' branch-free rows (floatrow.go), whose lanes keep exactly
// that. TestRectifierRowsMatchScalar pins each row to its scalar definition.

// NewReLU builds a rectified linear activation. ReLU is the dominant masking
// mechanism for negative-going faulty neurons in CNNs.
func NewReLU(name string, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, row: numerics.ReLURow}
}

// NewLeakyReLU builds a leaky rectifier (used in Yolo backbones).
func NewLeakyReLU(name string, alpha float32, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, row: func(out, x []float32) {
		out = out[:len(x)]
		for i, v := range x {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = alpha * v
			}
		}
	}}
}

// NewRelu6 builds the clipped rectifier used by MobileNet.
func NewRelu6(name string, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, row: func(out, x []float32) {
		numerics.ClipRow(out, x, 0, 6)
	}}
}

// NewClamp builds a symmetric value-bounding activation: outputs are clamped
// to [-bound, bound]. This is the hardware-software co-design mitigation the
// paper's Architectural Insights propose from Key Result 5: large faulty-
// neuron perturbations dominate application failures, so bounding neuron
// values (cheaply, in the write-back path) suppresses exactly the dangerous
// faults while leaving in-range activations untouched.
func NewClamp(name string, bound float32, codec numerics.Codec) *Activation {
	if bound <= 0 {
		panic(fmt.Sprintf("nn: clamp bound must be positive, got %v", bound))
	}
	return &Activation{name: name, codec: codec, row: func(out, x []float32) {
		numerics.ClipRow(out, x, -bound, bound)
	}}
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// SoftmaxLayer applies a softmax along the last dimension.
type SoftmaxLayer struct {
	name string
}

// NewSoftmax builds a softmax layer.
func NewSoftmax(name string) *SoftmaxLayer { return &SoftmaxLayer{name: name} }

// Name implements Layer.
func (l *SoftmaxLayer) Name() string { return l.name }

// Forward implements Layer.
func (l *SoftmaxLayer) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.exec(l, func() *tensor.Tensor {
		o := ctx.slot(l)
		return o.keep(tensor.Softmax(o.buf(), x))
	}, nil, x)
}
