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
	name  string
	f     func(float32) float32
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

// apply stores Round(f(x[i])) in out[i] for every i in x: the function value
// by value, the rounding over the whole run at once (Codec.RoundInto).
func (l *Activation) apply(out, x []float32) {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = l.f(v)
	}
	l.codec.RoundInto(out, out)
}

// NewReLU builds a rectified linear activation. ReLU is the dominant masking
// mechanism for negative-going faulty neurons in CNNs.
func NewReLU(name string, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, f: func(v float32) float32 {
		if v > 0 {
			return v
		}
		return 0
	}}
}

// NewLeakyReLU builds a leaky rectifier (used in Yolo backbones).
func NewLeakyReLU(name string, alpha float32, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, f: func(v float32) float32 {
		if v > 0 {
			return v
		}
		return alpha * v
	}}
}

// NewSigmoid builds a logistic activation (Yolo heads, LSTM gates).
func NewSigmoid(name string, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, f: sigmoid}
}

// NewTanh builds a hyperbolic-tangent activation (LSTM cells).
func NewTanh(name string, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, f: func(v float32) float32 {
		return float32(math.Tanh(float64(v)))
	}}
}

// NewRelu6 builds the clipped rectifier used by MobileNet.
func NewRelu6(name string, codec numerics.Codec) *Activation {
	return &Activation{name: name, codec: codec, f: func(v float32) float32 {
		switch {
		case v < 0:
			return 0
		case v > 6:
			return 6
		default:
			return v
		}
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
	return &Activation{name: name, codec: codec, f: func(v float32) float32 {
		switch {
		case v > bound:
			return bound
		case v < -bound:
			return -bound
		default:
			return v
		}
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
		return tensor.Softmax(x)
	}, nil, x)
}
