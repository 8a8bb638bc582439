package faultmodel

import (
	"math/rand"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/rtlsim"
	"fidelity/internal/tensor"
)

func TestPlanMemoryErrorsValidation(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 31)
	if _, err := PlanMemoryErrors(site, op, nil); err == nil {
		t.Error("empty error list should fail")
	}
	if _, err := PlanMemoryErrors(site, op, []MemoryError{{Kind: nn.OperandInput, Word: 1 << 30, Bits: []int{0}}}); err == nil {
		t.Error("out-of-range word should fail")
	}
	if _, err := PlanMemoryErrors(site, op, []MemoryError{{Kind: nn.OperandInput, Word: 0}}); err == nil {
		t.Error("no bits should fail")
	}
	if _, err := PlanMemoryErrors(site, op, []MemoryError{{Kind: nn.OperandOutput, Word: 0, Bits: []int{0}}}); err == nil {
		t.Error("output buffer should fail")
	}
}

// A single-bit memory error must behave exactly like the before-CBUF FF
// model (Datapath RF Property 1).
func TestSingleMemoryErrorEqualsBeforeCBUF(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 32)
	conv := site.(*nn.Conv2D)

	word, bit := 17, 13
	plan, err := PlanMemoryErrors(site, op, []MemoryError{{Kind: nn.OperandWeight, Word: word, Bits: []int{bit}}})
	if err != nil {
		t.Fatal(err)
	}
	ApplyMemory(plan, site, op)

	w2 := conv.W.Clone()
	w2.Data()[word] = codec.FlipBit(w2.Data()[word], bit)
	ref := nn.NewConv2D("ref", 3, 3, 4, 32, 1, 1, codec)
	ref.W, ref.B = w2, conv.B
	refOut := ref.Forward(op.In, nil)
	if diffs := refOut.DiffIndices(op.Out, 0); len(diffs) != 0 {
		t.Errorf("memory model differs from brute force at %d neurons", len(diffs))
	}
}

// Multiple memory errors corrupt the union of the per-word reuse sets, and
// the patched output matches a full forward pass over the doubly corrupted
// operands.
func TestMultiWordMemoryErrors(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 33)
	conv := site.(*nn.Conv2D)

	errs := []MemoryError{
		{Kind: nn.OperandInput, Word: 5, Bits: []int{14}},
		{Kind: nn.OperandWeight, Word: 40, Bits: []int{13, 2}},
	}
	plan, err := PlanMemoryErrors(site, op, errs)
	if err != nil {
		t.Fatal(err)
	}
	// Union must be at least as large as the bigger individual set.
	single, _ := PlanMemoryErrors(site, op, errs[1:])
	if len(plan.Neurons) < len(single.Neurons) {
		t.Errorf("union %d smaller than single-set %d", len(plan.Neurons), len(single.Neurons))
	}
	ApplyMemory(plan, site, op)

	in2 := op.In.Clone()
	in2.Data()[5] = codec.FlipBit(in2.Data()[5], 14)
	w2 := conv.W.Clone()
	w2.Data()[40] = codec.FlipBit(codec.FlipBit(w2.Data()[40], 13), 2)
	ref := nn.NewConv2D("ref", 3, 3, 4, 32, 1, 1, codec)
	ref.W, ref.B = w2, conv.B
	refOut := ref.Forward(in2, nil)
	if diffs := refOut.DiffIndices(op.Out, 0); len(diffs) != 0 {
		t.Errorf("multi-error model differs from brute force at %d neurons", len(diffs))
	}
}

// The software memory model must match the cycle-level simulator exactly —
// the Sec. III-E validation.
func TestMemoryModelMatchesRTLSim(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	cfg := accel.NVDLASmall()
	rng := rand.New(rand.NewSource(34))
	conv := nn.NewConv2D("conv", 3, 3, 3, 10, 1, 1, codec).InitRandom(rng, 0.4)
	x := tensor.New(1, 7, 7, 3)
	x.RandNormal(rng, 1)
	layer := rtlsim.ConvLayer(x, conv.W, conv.B.Data(), 1, 1, codec)

	golden := conv.Forward(x, nil)
	for trial := 0; trial < 10; trial++ {
		mems := []rtlsim.MemFault{
			{Weight: false, Word: rng.Intn(x.Size()), Bits: []int{rng.Intn(16)}},
			{Weight: true, Word: rng.Intn(conv.W.Size()), Bits: []int{rng.Intn(16), rng.Intn(16)}},
		}
		rtl, err := rtlsim.RunWithMemoryFaults(cfg, layer, mems)
		if err != nil {
			t.Fatal(err)
		}
		var errs []MemoryError
		for _, m := range mems {
			kind := nn.OperandInput
			if m.Weight {
				kind = nn.OperandWeight
			}
			errs = append(errs, MemoryError{Kind: kind, Word: m.Word, Bits: m.Bits})
		}
		op := &nn.Operands{In: x, W: conv.W, B: conv.B, Out: golden.Clone()}
		plan, err := PlanMemoryErrors(conv, op, errs)
		if err != nil {
			t.Fatal(err)
		}
		ApplyMemory(plan, conv, op)
		if diffs := op.Out.DiffIndices(rtl.Out, 0); len(diffs) != 0 {
			t.Fatalf("trial %d: software memory model differs from cycle sim at %d neurons", trial, len(diffs))
		}
	}
}
