package nn

import (
	"math"
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

func fp32Codec() numerics.Codec { return numerics.MustCodec(numerics.FP32, 0) }

func TestConv2DIdentityKernel(t *testing.T) {
	l := NewConv2D("c", 1, 1, 1, 1, 1, 0, fp32Codec())
	l.W.Set(1, 0, 0, 0, 0)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	y := l.Forward(x, nil)
	if !y.Equal(x) {
		t.Errorf("1x1 identity conv changed input: %v", y)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 box filter over a 3x3 all-ones image, no padding: single output = 9.
	l := NewConv2D("c", 3, 3, 1, 1, 1, 0, fp32Codec())
	l.W.Fill(1)
	x := tensor.New(1, 3, 3, 1)
	x.Fill(1)
	y := l.Forward(x, nil)
	if y.Size() != 1 || y.At(0, 0, 0, 0) != 9 {
		t.Errorf("box filter = %v", y)
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	l := NewConv2D("c", 3, 3, 1, 2, 2, 1, fp32Codec())
	x := tensor.New(1, 5, 5, 1)
	want := []int{1, 3, 3, 2}
	if oh, ow := l.outHW(5, 5); oh != want[1] || ow != want[2] {
		t.Fatalf("outHW = %d×%d, want %d×%d", oh, ow, want[1], want[2])
	}
	rng := rand.New(rand.NewSource(1))
	l.InitRandom(rng, 1)
	x.RandNormal(rng, 1)
	y := l.Forward(x, nil)
	for i, d := range want {
		if y.Dim(i) != d {
			t.Fatalf("forward shape %v, want %v", y.Shape(), want)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	l := NewConv2D("c", 1, 1, 1, 1, 1, 0, fp32Codec())
	l.W.Set(0, 0, 0, 0, 0)
	l.B.Set(5, 0)
	x := tensor.New(1, 2, 2, 1)
	y := l.Forward(x, nil)
	for _, v := range y.Data() {
		if v != 5 {
			t.Errorf("bias-only conv = %v, want 5", v)
		}
	}
}

// Cross-check conv against a brute-force reference over random geometries.
func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		kh, kw := 1+rng.Intn(3), 1+rng.Intn(3)
		inC, outC := 1+rng.Intn(3), 1+rng.Intn(3)
		stride, pad := 1+rng.Intn(2), rng.Intn(2)
		h := kh + rng.Intn(4)
		w := kw + rng.Intn(4)
		l := NewConv2D("c", kh, kw, inC, outC, stride, pad, fp32Codec()).InitRandom(rng, 1)
		x := tensor.New(1, h, w, inC)
		x.RandNormal(rng, 1)
		y := l.Forward(x, nil)
		ref := referenceConv(x, l)
		if diffs := y.DiffIndices(ref, 1e-4); len(diffs) != 0 {
			t.Fatalf("trial %d: conv disagrees with reference at %d positions", trial, len(diffs))
		}
	}
}

// referenceConv computes convolution via explicit padding.
func referenceConv(x *tensor.Tensor, l *Conv2D) *tensor.Tensor {
	p := tensor.Pad2D(nil, x, l.Pad)
	oh, ow := l.outHW(x.Dim(1), x.Dim(2))
	os := []int{x.Dim(0), oh, ow, l.OutC}
	out := tensor.New(os...)
	for b := 0; b < os[0]; b++ {
		for oy := 0; oy < os[1]; oy++ {
			for ox := 0; ox < os[2]; ox++ {
				for oc := 0; oc < os[3]; oc++ {
					var acc float32
					for ky := 0; ky < l.KH; ky++ {
						for kx := 0; kx < l.KW; kx++ {
							for ic := 0; ic < l.InC; ic++ {
								acc += p.At(b, oy*l.Stride+ky, ox*l.Stride+kx, ic) * l.W.At(ky, kx, ic, oc)
							}
						}
					}
					out.Set(acc+l.B.At(oc), b, oy, ox, oc)
				}
			}
		}
	}
	return out
}

func TestDepthwiseConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewDepthwiseConv2D("dw", 3, 3, 4, 1, 1, fp32Codec()).InitRandom(rng, 1)
	x := tensor.New(1, 5, 5, 4)
	x.RandNormal(rng, 1)
	y := l.Forward(x, nil)
	if y.Dim(3) != 4 {
		t.Fatalf("depthwise channels = %d", y.Dim(3))
	}
	// Channel independence: zeroing channel 0 of the input must only change
	// channel 0 of the output.
	x2 := x.Clone()
	for yy := 0; yy < 5; yy++ {
		for xx := 0; xx < 5; xx++ {
			x2.Set(0, 0, yy, xx, 0)
		}
	}
	y2 := l.Forward(x2, nil)
	for _, off := range y.DiffIndices(y2, 0) {
		if idx := y.Unflatten(off); idx[3] != 0 {
			t.Fatalf("depthwise leaked across channels at %v", idx)
		}
	}
}

// ComputeNeuron with an override must equal a forward pass over a mutated
// operand tensor — the core guarantee the injection engine relies on.
func TestConvComputeNeuronOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewConv2D("c", 3, 3, 2, 3, 1, 1, fp32Codec()).InitRandom(rng, 1)
	x := tensor.New(1, 4, 4, 2)
	x.RandNormal(rng, 1)
	op := &Operands{In: x, W: l.W, B: l.B}

	for _, kind := range []OperandKind{OperandInput, OperandWeight, OperandBias} {
		var target *tensor.Tensor
		switch kind {
		case OperandInput:
			target = x
		case OperandWeight:
			target = l.W
		case OperandBias:
			target = l.B
		}
		flat := rng.Intn(target.Size())
		faulty := float32(42.5)
		ov := &Override{Kind: kind, Flat: flat, Value: faulty}

		// Mutate a copy and run a full forward as reference.
		mutIn, mutL := x, l
		switch kind {
		case OperandInput:
			mutIn = x.Clone()
			mutIn.Data()[flat] = faulty
		case OperandWeight:
			mutL = NewConv2D("c", 3, 3, 2, 3, 1, 1, fp32Codec())
			mutL.W = l.W.Clone()
			mutL.W.Data()[flat] = faulty
			mutL.B = l.B
		case OperandBias:
			mutL = NewConv2D("c", 3, 3, 2, 3, 1, 1, fp32Codec())
			mutL.W = l.W
			mutL.B = l.B.Clone()
			mutL.B.Data()[flat] = faulty
		}
		ref := mutL.Forward(mutIn, nil)
		affected := l.NeuronsUsingOperand(op, kind, flat, nil)
		if len(affected) == 0 {
			t.Fatalf("%v: no affected neurons for flat %d", kind, flat)
		}
		for _, off := range affected {
			got := l.ComputeNeuron(op, off, ov)
			want := ref.Data()[off]
			if math.Abs(float64(got-want)) > 1e-4 {
				t.Fatalf("%v: ComputeNeuron(%d) = %v, want %v", kind, off, got, want)
			}
		}
	}
}

func TestConvInputValidation(t *testing.T) {
	l := NewConv2D("c", 3, 3, 2, 2, 1, 0, fp32Codec())
	defer func() {
		if recover() == nil {
			t.Error("wrong channel count should panic")
		}
	}()
	l.Forward(tensor.New(1, 4, 4, 3), nil)
}

func TestConvGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry should panic")
		}
	}()
	NewConv2D("c", 0, 3, 1, 1, 1, 0, fp32Codec())
}

// TestInvalidateWeightsMidCampaign guards the rounded-weight cache against
// stale reads when a campaign mutates weights between experiments (the
// sensitivity sweep perturbs FF-count estimates by rescaling W in place).
// After mutate + InvalidateWeights, Forward and ComputeNeuron must both see
// the new weights and still satisfy the MulPre(Round(a), Round(b)) == Mul(a, b)
// invariant — i.e. match a pristine layer built directly from the mutated
// weights and the reference kernels, at a lossy precision where rounding
// actually bites. The layers are large enough for the FP16 panel's
// AVX512-FP16 body (48 outputs: blocks of 32 and 16 columns; at least
// fp16PanelMinMACs a call), which reads the cache's packed halves.
func TestInvalidateWeightsMidCampaign(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	rng := rand.New(rand.NewSource(11))
	l := NewConv2D("c", 3, 3, 4, 48, 1, 1, codec).InitRandom(rng, 1)
	x := tensor.New(1, 5, 5, 4)
	x.RandNormal(rng, 1)

	// Populate the cache, then mutate every weight in place.
	before := l.Forward(x, nil)
	for i, v := range l.W.Data() {
		l.W.Data()[i] = v*1.25 + 0.01
	}
	l.InvalidateWeights()

	runKernelModes(t, "conv after InvalidateWeights", func() *tensor.Tensor { return l.Forward(x, nil) })
	fresh := NewConv2D("c", 3, 3, 4, 48, 1, 1, codec)
	fresh.W = l.W.Clone()
	fresh.B = l.B.Clone()
	want := fresh.Forward(x, nil)
	got := l.Forward(x, nil)
	if !got.Equal(want) {
		t.Fatal("Forward after InvalidateWeights does not match a fresh layer over the mutated weights")
	}
	if got.Equal(before) {
		t.Fatal("Forward after weight mutation returned the pre-mutation output (stale cache)")
	}
	op := &Operands{In: x, W: l.W, B: l.B}
	for off := 0; off < want.Size(); off += 7 {
		if cn := l.ComputeNeuron(op, off, nil); cn != want.Data()[off] {
			t.Fatalf("ComputeNeuron(%d) = %v after InvalidateWeights, Forward says %v", off, cn, want.Data()[off])
		}
	}

	// Same contract for Dense, which shares the cache design.
	d := NewDense("d", 24, 48, codec).InitRandom(rng, 1)
	xv := tensor.New(1, 24)
	xv.RandNormal(rng, 1)
	d.Forward(xv, nil)
	for i, v := range d.W.Data() {
		d.W.Data()[i] = v*0.75 - 0.02
	}
	d.InvalidateWeights()
	fd := NewDense("d", 24, 48, codec)
	fd.W = d.W.Clone()
	fd.B = d.B.Clone()
	dwant := fd.Forward(xv, nil)
	if !d.Forward(xv, nil).Equal(dwant) {
		t.Fatal("Dense Forward after InvalidateWeights does not match a fresh layer")
	}
	dop := &Operands{In: xv, W: d.W, B: d.B}
	for off := 0; off < dwant.Size(); off++ {
		if cn := d.ComputeNeuron(dop, off, nil); cn != dwant.Data()[off] {
			t.Fatalf("Dense ComputeNeuron(%d) = %v, Forward says %v", off, cn, dwant.Data()[off])
		}
	}
}
