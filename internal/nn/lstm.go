package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// LSTM runs a single-layer LSTM over a (seq, features) input and returns the
// final hidden state as (1, hidden). The four gates are computed by one
// fused Dense site over [x_t ; h_{t-1}], which is how the paper's RNN
// workload ("a FC layer in LSTM", Table III) maps onto the NVDLA FC pipeline.
// The gate Dense executes once per timestep, so one LSTM forward fires the
// injection hook seq times with distinct visit numbers.
type LSTM struct {
	name   string
	In     int
	Hidden int
	Gates  *Dense // (In+Hidden) -> 4*Hidden, order: i, f, g, o
	codec  numerics.Codec
}

// NewLSTM builds an LSTM layer.
func NewLSTM(name string, in, hidden int, codec numerics.Codec) *LSTM {
	if in <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("nn: invalid LSTM geometry in=%d hidden=%d", in, hidden))
	}
	return &LSTM{
		name: name, In: in, Hidden: hidden,
		Gates: NewDense(name+"/gates", in+hidden, 4*hidden, codec),
		codec: codec,
	}
}

// InitRandom fills the gate weights.
func (l *LSTM) InitRandom(rng *rand.Rand, stddev float32) *LSTM {
	l.Gates.InitRandom(rng, stddev)
	// Positive forget-gate bias, the standard initialization, keeps cell
	// state dynamics stable for random weights.
	for h := 0; h < l.Hidden; h++ {
		l.Gates.B.Set(1, l.Hidden+h)
	}
	return l
}

// children implements container.
func (l *LSTM) children() []Layer { return []Layer{l.Gates} }

// Name implements Layer.
func (l *LSTM) Name() string { return l.name }

// Forward implements Layer. x is (seq, In); the result is (1, Hidden).
func (l *LSTM) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects (seq,%d), got %v", l.name, l.In, x.Shape()))
	}
	seq := x.Dim(0)
	// The hidden state is the output, kept by the context like a concat's
	// (entrySlot); the cell state and the gates' input [x_t ; h_{t-1}] are
	// per-call scratch.
	o := ctx.entrySlot(l)
	h := o.buf()
	if h == nil {
		h = o.keep(tensor.New(1, l.Hidden))
	}
	sc := ctx.scratch()
	sc.cell = grow(sc.cell, l.Hidden)
	if sc.gatesIn == nil || sc.gatesIn.Size() != l.In+l.Hidden {
		sc.gatesIn = tensor.New(1, l.In+l.Hidden)
	}
	c, concat := sc.cell, sc.gatesIn
	clear(c)
	hd, cd, xd := h.Data(), concat.Data(), x.Data()
	clear(hd)
	for t := 0; t < seq; t++ {
		copy(cd[:l.In], xd[t*l.In:(t+1)*l.In])
		copy(cd[l.In:], hd)
		gd := l.Gates.Forward(concat, ctx).Data() // (1, 4*Hidden)
		for i := 0; i < l.Hidden; i++ {
			ig := sigmoid(gd[i])
			fg := sigmoid(gd[l.Hidden+i])
			gg := float32(math.Tanh(float64(gd[2*l.Hidden+i])))
			og := sigmoid(gd[3*l.Hidden+i])
			c[i] = l.codec.Round(fg*c[i] + ig*gg)
			hd[i] = l.codec.Round(og * float32(math.Tanh(float64(c[i]))))
		}
	}
	return h
}
