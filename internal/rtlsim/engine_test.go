package rtlsim

import (
	"math/rand"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

func nvdla() *accel.Config { return accel.NVDLASmall() }

// randConvLayer builds matching rtlsim and nn conv layers.
func randConvLayer(seed int64, codec numerics.Codec, h, w, inC, outC, kh, stride, pad int) (*Layer, *nn.Conv2D, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D("conv", kh, kh, inC, outC, stride, pad, codec).InitRandom(rng, 0.4)
	x := tensor.New(1, h, w, inC)
	x.RandNormal(rng, 1)
	l := ConvLayer(x, conv.W, conv.B.Data(), stride, pad, codec)
	return l, conv, x
}

// The golden (fault-free) simulation must agree bit-for-bit with the
// software layer at every precision — the foundation of the validation
// methodology.
func TestGoldenMatchesSoftwareConv(t *testing.T) {
	for _, p := range []numerics.Precision{numerics.FP32, numerics.FP16, numerics.INT16, numerics.INT8} {
		codec := numerics.MustCodec(p, 8)
		l, conv, x := randConvLayer(1, codec, 6, 7, 3, 20, 3, 1, 1)
		o, err := Run(nvdla(), l, nil)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if o.TimedOut {
			t.Fatalf("%v: golden run timed out", p)
		}
		ref := conv.Forward(x, nil)
		if diffs := o.Out.DiffIndices(ref, 0); len(diffs) != 0 {
			t.Errorf("%v: golden disagrees with software at %d/%d neurons",
				p, len(diffs), ref.Size())
		}
	}
}

func TestGoldenMatchesSoftwareMatMul(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	rng := rand.New(rand.NewSource(2))
	a, b := tensor.New(21, 12), tensor.New(12, 19)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	mm := nn.NewMatMulSite("mm", false, 0, codec)
	ref := mm.Run(a, b, nil)
	l := MatMulLayer(accel.LayerMatMul, a, b, nil, codec)
	o, err := Run(nvdla(), l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := o.Out.DiffIndices(ref, 0); len(diffs) != 0 {
		t.Errorf("matmul golden disagrees at %d neurons", len(diffs))
	}
}

func TestGoldenMatchesSoftwareFC(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	rng := rand.New(rand.NewSource(3))
	fc := nn.NewDense("fc", 30, 17, codec).InitRandom(rng, 0.3)
	x := tensor.New(9, 30)
	x.RandNormal(rng, 1)
	ref := fc.Forward(x, nil)
	l := MatMulLayer(accel.LayerFC, x, fc.W, fc.B.Data(), codec)
	o, err := Run(nvdla(), l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := o.Out.DiffIndices(ref, 0); len(diffs) != 0 {
		t.Errorf("fc golden disagrees at %d neurons", len(diffs))
	}
}

func TestLayerValidation(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	bad := MatMulLayer(accel.LayerMatMul, tensor.New(3, 4), tensor.New(5, 2), nil, codec)
	if _, err := Run(nvdla(), bad, nil); err == nil {
		t.Error("inner-dim mismatch should fail")
	}
	badConv := ConvLayer(tensor.New(2, 3), tensor.New(3, 3, 1, 1), nil, 1, 0, codec)
	if _, err := Run(nvdla(), badConv, nil); err == nil {
		t.Error("non-NHWC conv input should fail")
	}
	badBias := MatMulLayer(accel.LayerFC, tensor.New(3, 4), tensor.New(4, 2), []float32{1}, codec)
	if _, err := Run(nvdla(), badBias, nil); err == nil {
		t.Error("bias length mismatch should fail")
	}
	cfg := nvdla()
	cfg.AtomicK = 0
	good := MatMulLayer(accel.LayerFC, tensor.New(3, 4), tensor.New(4, 2), nil, codec)
	if _, err := Run(cfg, good, nil); err == nil {
		t.Error("invalid config should fail")
	}
}

// faultDiff runs golden and faulty simulations and returns the changed
// output positions.
func faultDiff(t *testing.T, l *Layer, f *Fault) (*Outcome, []int, *tensor.Tensor) {
	t.Helper()
	golden, err := Run(nvdla(), l, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(nvdla(), l, f)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.TimedOut {
		return faulty, nil, golden.Out
	}
	return faulty, golden.Out.DiffIndices(faulty.Out, 0), golden.Out
}

// A CDMA input fault corrupts one CBUF element and therefore all neurons
// that use the value (before CBUF / input model).
func TestFaultCDMAInput(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, conv, x := randConvLayer(4, codec, 5, 5, 2, 4, 3, 1, 1)
	elem := 12 // input element streamed at cycle 12 through stage 0
	f := &Fault{FF: FFCDMAIn0, Bit: 14, Cycle: int64(elem)}
	faulty, diffs, golden := faultDiff(t, l, f)
	if !faulty.FaultApplied {
		t.Fatal("fault did not fire")
	}
	if len(diffs) == 0 {
		t.Fatal("exponent-bit CDMA fault should corrupt outputs")
	}
	// The changed set must equal the full reuse set of the element, with
	// values matching a software recomputation with the flipped element.
	x2 := x.Clone()
	x2.Data()[elem] = codec.FlipBit(x2.Data()[elem], 14)
	ref := conv.Forward(x2, nil)
	if rd := ref.DiffIndices(faulty.Out, 0); len(rd) != 0 {
		t.Errorf("faulty RTL output differs from software bit-flip reference at %d neurons", len(rd))
	}
	_ = golden
}

// A CDMA weight fault corrupts all spatial positions of one output channel.
func TestFaultCDMAWeight(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, conv, x := randConvLayer(5, codec, 5, 5, 2, 4, 3, 1, 1)
	elem := 20
	f := &Fault{FF: FFCDMAWt1, Bit: 13, Cycle: int64(elem) + 1} // stage1 holds element c-1
	faulty, diffs, _ := faultDiff(t, l, f)
	if len(diffs) == 0 {
		t.Fatal("CDMA weight fault should corrupt outputs")
	}
	oc := conv.W.Unflatten(elem)[3]
	for _, off := range diffs {
		idx := faulty.Out.Unflatten(off)
		if idx[3] != oc {
			t.Errorf("weight fault leaked into channel %d, want only %d", idx[3], oc)
		}
	}
	w2 := conv.W.Clone()
	w2.Data()[elem] = codec.FlipBit(w2.Data()[elem], 13)
	ref := nn.NewConv2D("ref", 3, 3, 2, 4, 1, 1, codec)
	ref.W, ref.B = w2, conv.B
	refOut := ref.Forward(x, nil)
	if rd := refOut.DiffIndices(faulty.Out, 0); len(rd) != 0 {
		t.Errorf("faulty RTL output differs from software reference at %d neurons", len(rd))
	}
}

// An input-register fault (Fig 2a target a4) corrupts at most k neurons at
// one position spanning one channel group.
func TestFaultInputReg(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(6, codec, 5, 5, 2, 32, 3, 1, 1)
	start, end, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	found := false
	for trial := 0; trial < 20 && !found; trial++ {
		f := &Fault{FF: FFInputReg, Bit: 14, Cycle: start + rng.Int63n(end-start)}
		faulty, diffs, _ := faultDiff(t, l, f)
		if !faulty.FaultApplied || len(diffs) == 0 {
			continue
		}
		found = true
		if len(diffs) > 16 {
			t.Fatalf("input-reg fault corrupted %d neurons, want <= 16", len(diffs))
		}
		first := faulty.Out.Unflatten(diffs[0])
		group := first[3] / 16
		for _, off := range diffs {
			idx := faulty.Out.Unflatten(off)
			if idx[0] != first[0] || idx[1] != first[1] || idx[2] != first[2] {
				t.Errorf("input-reg fault crossed positions: %v vs %v", idx, first)
			}
			if idx[3]/16 != group {
				t.Errorf("input-reg fault crossed channel groups")
			}
		}
	}
	if !found {
		t.Error("no live input-reg fault found in 20 trials")
	}
}

// A held-weight-register fault (target a2) corrupts a suffix of consecutive
// positions within one block, in a single output channel.
func TestFaultWReg(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(7, codec, 8, 8, 2, 4, 3, 1, 1)
	start, end, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sizes := map[int]bool{}
	for trial := 0; trial < 40; trial++ {
		f := &Fault{FF: FFWReg, Mac: rng.Intn(4), Bit: 14, Cycle: start + rng.Int63n(end-start)}
		faulty, diffs, _ := faultDiff(t, l, f)
		if !faulty.FaultApplied || len(diffs) == 0 {
			continue
		}
		if len(diffs) > 16 {
			t.Fatalf("wreg fault corrupted %d neurons, want <= 16", len(diffs))
		}
		sizes[len(diffs)] = true
		oc := faulty.Out.Unflatten(diffs[0])[3]
		for _, off := range diffs {
			if faulty.Out.Unflatten(off)[3] != oc {
				t.Error("wreg fault crossed output channels")
			}
		}
	}
	if len(sizes) < 2 {
		t.Errorf("wreg fault sizes should vary with injection cycle, got %v", sizes)
	}
}

// A weight-staging-register fault (target a1) corrupts the weight for the
// whole upcoming hold window.
func TestFaultWLoad(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(8, codec, 8, 8, 2, 4, 3, 1, 1)
	start, _, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle `start` is the first load cycle of block 0 / group 0 / r 0.
	f := &Fault{FF: FFWLoad, Mac: 1, Bit: 14, Cycle: start}
	faulty, diffs, _ := faultDiff(t, l, f)
	if !faulty.FaultApplied {
		t.Fatal("wload fault did not fire")
	}
	// The first block spans t=16 positions; all of them (channel 1) should
	// be corrupted (output W dim is 8, so the block covers 16 row-major
	// positions).
	if len(diffs) == 0 || len(diffs) > 16 {
		t.Fatalf("wload fault corrupted %d neurons, want 1..16", len(diffs))
	}
	for _, off := range diffs {
		if faulty.Out.Unflatten(off)[3] != 1 {
			t.Error("wload fault must stay in MAC 1's channel")
		}
	}
}

// Product and output-register faults have RF = 1.
func TestFaultProdAndOutRegRF1(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(9, codec, 5, 5, 2, 4, 3, 1, 1)
	start, end, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, ff := range []FF{FFProd, FFOutReg} {
		hits := 0
		for trial := 0; trial < 30; trial++ {
			f := &Fault{FF: ff, Mac: rng.Intn(4), Bit: 14, Cycle: start + rng.Int63n(end-start)}
			faulty, diffs, _ := faultDiff(t, l, f)
			if !faulty.FaultApplied || len(diffs) == 0 {
				continue
			}
			hits++
			if len(diffs) != 1 {
				t.Fatalf("%s fault corrupted %d neurons, want 1", ff, len(diffs))
			}
		}
		if hits == 0 {
			t.Errorf("no live %s fault in 30 trials", ff)
		}
	}
}

// Valid-bit faults (local control) drop one product: RF = 1.
func TestFaultValidRF1(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(10, codec, 5, 5, 2, 4, 3, 1, 1)
	start, end, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	hits := 0
	for trial := 0; trial < 30; trial++ {
		f := &Fault{FF: FFValid, Mac: rng.Intn(4), Bit: 0, Cycle: start + rng.Int63n(end-start)}
		faulty, diffs, _ := faultDiff(t, l, f)
		if !faulty.FaultApplied || len(diffs) == 0 {
			continue
		}
		hits++
		if len(diffs) != 1 {
			t.Fatalf("valid fault corrupted %d neurons, want 1", len(diffs))
		}
	}
	if hits == 0 {
		t.Error("no visible valid-bit fault in 30 trials")
	}
}

// Global control faults produce massive corruption or time-out.
func TestFaultGlobalControl(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(11, codec, 6, 6, 2, 8, 3, 1, 1)
	start, end, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ffs := []FF{FFCfgPos, FFCfgCh, FFCfgRed, FFCtrBlk, FFCtrGrp, FFCtrR, FFCtrDx}
	fired, severe := 0, 0
	for trial := 0; trial < 60; trial++ {
		f := &Fault{
			FF:    ffs[rng.Intn(len(ffs))],
			Bit:   rng.Intn(16),
			Cycle: start + rng.Int63n(end-start),
		}
		faulty, diffs, golden := faultDiff(t, l, f)
		if !faulty.FaultApplied {
			continue
		}
		fired++
		if faulty.TimedOut || len(diffs) > golden.Size()/20 {
			severe++
		}
	}
	if fired == 0 {
		t.Fatal("no global-control fault fired")
	}
	// The large majority of active global-control faults must be severe
	// (paper: ~90.5% of global faults are not masked).
	if float64(severe) < 0.5*float64(fired) {
		t.Errorf("only %d/%d global faults were severe", severe, fired)
	}
}

// A high bit flip in the reduction-length config register must trip the
// watchdog (system time-out).
func TestFaultTimeout(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(12, codec, 5, 5, 2, 4, 3, 1, 1)
	start, _, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fault{FF: FFCfgRed, Bit: 19, Cycle: start + 5}
	o, err := Run(nvdla(), l, f)
	if err != nil {
		t.Fatal(err)
	}
	if !o.TimedOut {
		t.Error("2^19 reduction-length corruption should time out")
	}
}

// A fault aimed at a cycle where the target FF is inactive must be masked.
func TestInactiveFaultMasked(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(13, codec, 5, 5, 2, 4, 3, 1, 1)
	// MAC-side FF during the fetch phase: never live.
	f := &Fault{FF: FFWReg, Mac: 0, Bit: 5, Cycle: 3}
	faulty, diffs, _ := faultDiff(t, l, f)
	if faulty.FaultApplied {
		t.Error("MAC fault during fetch should not fire")
	}
	if len(diffs) != 0 {
		t.Error("inactive fault must be masked")
	}
	// CDMA fault beyond the stream length: also inactive.
	f = &Fault{FF: FFCDMAIn0, Bit: 5, Cycle: int64(l.Input.Size()) + 1}
	faulty, diffs, _ = faultDiff(t, l, f)
	if faulty.FaultApplied || len(diffs) != 0 {
		t.Error("out-of-stream CDMA fault must be masked")
	}
}

func TestFFClassification(t *testing.T) {
	if FFInputReg.Class() != accel.Datapath || FFWReg.Class() != accel.Datapath {
		t.Error("datapath FFs misclassified")
	}
	if FFValid.Class() != accel.LocalControl {
		t.Error("valid bit must be local control")
	}
	for _, ff := range []FF{FFCfgPos, FFCfgCh, FFCfgRed, FFCtrBlk, FFCtrGrp, FFCtrR, FFCtrDx} {
		if ff.Class() != accel.GlobalControl {
			t.Errorf("%s must be global control", ff)
		}
	}
}

func TestGoldenCyclesAndWindows(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	l, _, _ := randConvLayer(14, codec, 5, 5, 2, 4, 3, 1, 1)
	gc, err := GoldenCycles(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	o, err := Run(nvdla(), l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cycles != gc {
		t.Errorf("golden run took %d cycles, estimate %d", o.Cycles, gc)
	}
	fw, _, err := ComputeWindow(nvdla(), l)
	if err != nil {
		t.Fatal(err)
	}
	if fw <= 0 || fw >= gc {
		t.Errorf("fetch window %d outside (0, %d)", fw, gc)
	}
	if (&Fault{FF: FFWReg, Mac: 1, Bit: 2, Cycle: 3}).String() == "" {
		t.Error("fault string empty")
	}
}

// Randomized geometry sweep: the golden simulation must match the software
// layer bit-for-bit across random conv shapes, strides, paddings and
// precisions — the foundation that makes value-exact fault validation
// meaningful everywhere in the space.
func TestGoldenEquivalenceRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	precs := []numerics.Precision{numerics.FP32, numerics.FP16, numerics.INT16, numerics.INT8}
	for trial := 0; trial < 12; trial++ {
		kh := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(20)
		h := kh + rng.Intn(6)
		w := kh + rng.Intn(6)
		codec := numerics.MustCodec(precs[trial%len(precs)], 8)

		conv := nn.NewConv2D("c", kh, kh, inC, outC, stride, pad, codec).InitRandom(rng, 0.4)
		x := tensor.New(1, h, w, inC)
		x.RandNormal(rng, 1)
		ref := conv.Forward(x, nil)

		l := ConvLayer(x, conv.W, conv.B.Data(), stride, pad, codec)
		o, err := Run(nvdla(), l, nil)
		if err != nil {
			// Degenerate output geometry is a layer error, not a mismatch.
			continue
		}
		if diffs := o.Out.DiffIndices(ref, 0); len(diffs) != 0 {
			t.Fatalf("trial %d (k=%d s=%d p=%d %dx%dx%d->%d %v): %d mismatches",
				trial, kh, stride, pad, h, w, inC, outC, codec.Precision(), len(diffs))
		}
	}
}
