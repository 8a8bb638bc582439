// Package rtlsim is the validation golden reference of this reproduction: a
// cycle-level microarchitectural simulator of the NVDLA-like accelerator of
// paper Fig 2(a), with named flip-flops that can suffer single-cycle
// bit-flips at chosen cycles. It plays the role that Synopsys VCS RTL
// simulation of NVDLA plays in the paper's Sec. IV: for a sampled fault
// site, the simulator produces the ground-truth set of faulty output
// neurons, their values, and time-out behaviour, against which FIdelity's
// software fault models are checked.
//
// The simulated design executes one DNN layer (Conv, FC, or MatMul) with the
// NVDLA schedule: k parallel MAC units compute the output neurons of k
// consecutive channels at one position per cycle; weight registers hold each
// value for up to t consecutive positions (temporal reuse); one input value
// per cycle is broadcast to all MACs (spatial reuse). FC and MatMul map onto
// the same engine with positions = matrix rows and channels = output
// columns, exactly as NVDLA runs them on the convolution pipeline.
package rtlsim

import (
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Layer describes one workload layer together with its operand data.
type Layer struct {
	Kind accel.LayerKind

	// Convolution geometry (Kind == LayerConv). Input is NHWC and W is
	// (KH, KW, InC, OutC).
	KH, KW, Stride, Pad int

	// Input is the activation tensor: NHWC for conv, (M, K) for FC/MatMul.
	Input *tensor.Tensor
	// W is the weight tensor: (KH, KW, InC, OutC) for conv, (K, N) for
	// FC/MatMul.
	W *tensor.Tensor
	// Bias is an optional per-channel bias (length OutC / N).
	Bias []float32

	// Codec is the datapath number format.
	Codec numerics.Codec
}

// ConvLayer builds a conv workload.
func ConvLayer(input, w *tensor.Tensor, bias []float32, stride, pad int, codec numerics.Codec) *Layer {
	return &Layer{
		Kind: accel.LayerConv, KH: w.Dim(0), KW: w.Dim(1), Stride: stride, Pad: pad,
		Input: input, W: w, Bias: bias, Codec: codec,
	}
}

// MatMulLayer builds an FC/MatMul workload over (M,K)·(K,N).
func MatMulLayer(kind accel.LayerKind, a, w *tensor.Tensor, bias []float32, codec numerics.Codec) *Layer {
	return &Layer{Kind: kind, Input: a, W: w, Bias: bias, Codec: codec}
}

// schedule captures the iteration-space mapping of the layer onto the
// engine: positions (outer spatial scan), channels (parallel MACs), and
// reduction indices (MAC operand pairs). This is precisely the information
// the paper's "scheduling/reuse algorithm" input provides. It is immutable
// once built, so one schedule serves every run of a Reference.
type schedule struct {
	numPos, numCh, numRed int

	// Operand element counts (the CDMA stream lengths).
	inSize, wSize int

	// conv geometry cache
	conv               bool
	batch, inH, inW    int
	inC, outH, outW    int
	kh, kw, stride, pd int

	// Conv input addressing, split so that aIndex divides nothing per MAC
	// cycle: the input-window origin of every position and the window
	// offset of every reduction index.
	pos []convPos
	red []convRed
}

// convPos is the input-window origin of one output position: the flat offset
// of its batch image and the (possibly negative) top-left input coordinate.
type convPos struct{ base, y, x int }

// convRed is the window offset (ky, kx) and input channel of one reduction
// index.
type convRed struct{ y, x, c int }

func (l *Layer) newSchedule() (*schedule, error) {
	s := &schedule{}
	switch l.Kind {
	case accel.LayerConv:
		if l.Input.Rank() != 4 || l.W.Rank() != 4 {
			return nil, fmt.Errorf("rtlsim: conv needs NHWC input and 4-D weights, got %v / %v",
				l.Input.Shape(), l.W.Shape())
		}
		s.conv = true
		s.batch, s.inH, s.inW, s.inC = l.Input.Dim(0), l.Input.Dim(1), l.Input.Dim(2), l.Input.Dim(3)
		s.kh, s.kw, s.stride, s.pd = l.KH, l.KW, l.Stride, l.Pad
		if l.W.Dim(2) != s.inC {
			return nil, fmt.Errorf("rtlsim: weight input channels %d != input %d", l.W.Dim(2), s.inC)
		}
		s.outH = (s.inH+2*s.pd-s.kh)/s.stride + 1
		s.outW = (s.inW+2*s.pd-s.kw)/s.stride + 1
		if s.outH <= 0 || s.outW <= 0 {
			return nil, fmt.Errorf("rtlsim: conv output is empty")
		}
		s.numPos = s.batch * s.outH * s.outW
		s.numCh = l.W.Dim(3)
		s.numRed = s.kh * s.kw * s.inC
		// p -> (b, oy, ox); r -> (ky, kx, ic), both row-major.
		s.pos = make([]convPos, s.numPos)
		for p := range s.pos {
			ox := p % s.outW
			oy := (p / s.outW) % s.outH
			b := p / (s.outW * s.outH)
			s.pos[p] = convPos{base: b * s.inH * s.inW * s.inC, y: oy*s.stride - s.pd, x: ox*s.stride - s.pd}
		}
		s.red = make([]convRed, s.numRed)
		for r := range s.red {
			s.red[r] = convRed{y: r / (s.inC * s.kw), x: (r / s.inC) % s.kw, c: r % s.inC}
		}
	case accel.LayerFC, accel.LayerMatMul:
		if l.Input.Rank() != 2 || l.W.Rank() != 2 {
			return nil, fmt.Errorf("rtlsim: matmul needs rank-2 operands, got %v / %v",
				l.Input.Shape(), l.W.Shape())
		}
		if l.Input.Dim(1) != l.W.Dim(0) {
			return nil, fmt.Errorf("rtlsim: inner dims %d vs %d", l.Input.Dim(1), l.W.Dim(0))
		}
		s.numPos = l.Input.Dim(0)
		s.numCh = l.W.Dim(1)
		s.numRed = l.Input.Dim(1)
	default:
		return nil, fmt.Errorf("rtlsim: unsupported layer kind %v", l.Kind)
	}
	if l.Bias != nil && len(l.Bias) != s.numCh {
		return nil, fmt.Errorf("rtlsim: bias length %d != channels %d", len(l.Bias), s.numCh)
	}
	s.inSize, s.wSize = l.Input.Size(), l.W.Size()
	return s, nil
}

// aIndex returns the flat index into the input buffer of the operand used at
// (position p, reduction r), or -1 for padding (value 0).
func (s *schedule) aIndex(p, r int) int {
	if !s.conv {
		return p*s.numRed + r
	}
	return s.inOffset(s.pos[p], s.red[r])
}

// inOffset is aIndex for a conv position's window origin pp and a reduction
// index's window offset rr.
func (s *schedule) inOffset(pp convPos, rr convRed) int {
	iy, ix := pp.y+rr.y, pp.x+rr.x
	if iy < 0 || iy >= s.inH || ix < 0 || ix >= s.inW {
		return -1
	}
	return pp.base + (iy*s.inW+ix)*s.inC + rr.c
}

// padding returns how many of red's leading window offsets put the position
// with window origin pp in the padding.
func (s *schedule) padding(pp convPos, red []convRed) int {
	for j, rr := range red {
		if s.inOffset(pp, rr) >= 0 {
			return j
		}
	}
	return len(red)
}

// wIndex returns the flat index into the weight buffer of the operand used
// at (reduction r, channel c): both W layouts, (KH, KW, InC, OutC) and
// (K, N), are reduction-major, channel-minor.
func (s *schedule) wIndex(r, c int) int {
	return r*s.numCh + c
}

// outShape returns the output tensor shape.
func (s *schedule) outShape() []int {
	if s.conv {
		return []int{s.batch, s.outH, s.outW, s.numCh}
	}
	return []int{s.numPos, s.numCh}
}

// outOffset converts (position, channel) to the flat output offset: both
// output layouts, NHWC and (M, N), are position-major, channel-minor.
func (s *schedule) outOffset(p, c int) int {
	return p*s.numCh + c
}

// outIndex converts (position, channel) to the output multi-index.
func (s *schedule) outIndex(p, c int) []int {
	if s.conv {
		ox := p % s.outW
		oy := (p / s.outW) % s.outH
		b := p / (s.outW * s.outH)
		return []int{b, oy, ox, c}
	}
	return []int{p, c}
}

// fetchCycles is the CDMA streaming time: input and weight streams run in
// parallel, one element per cycle, through two pipeline registers.
func (s *schedule) fetchCycles() int64 {
	return int64(max(s.inSize, s.wSize)) + 2
}

// tileCycles is the length of one (block, group) tile with bs positions: a
// weight-load cycle plus bs MAC cycles per reduction index, then one
// write-back cycle per (position, MAC).
func (s *schedule) tileCycles(k, bs int) int64 {
	return int64(s.numRed)*int64(1+bs) + int64(bs)*int64(k)
}

// goldenCycles is the exact fault-free cycle count on a k-MAC, t-hold design
// (TestGoldenCyclesExact holds it to the simulated run): the fetch, then
// every block's groups × tileCycles; only the last block can be short.
func (s *schedule) goldenCycles(k, t int) int64 {
	groups := int64((s.numCh + k - 1) / k)
	compute := int64(s.numPos/t) * groups * s.tileCycles(k, t)
	if last := s.numPos % t; last > 0 {
		compute += groups * s.tileCycles(k, last)
	}
	return s.fetchCycles() + compute
}
