package faultmodel

import (
	"math"
	"math/rand"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

func deriveNVDLA(t *testing.T) []Model {
	t.Helper()
	models, err := Derive(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	return models
}

// The derived model set must reproduce Table II: seven rows with the paper's
// %FF and RF values.
func TestDeriveMatchesTableII(t *testing.T) {
	models := deriveNVDLA(t)
	if len(models) != 7 {
		t.Fatalf("derived %d models, want 7", len(models))
	}
	want := map[ID]struct {
		frac     float64
		rf       int
		allUsers bool
		all      bool
	}{
		BeforeCBUFInput:  {frac: 0.025, allUsers: true},
		BeforeCBUFWeight: {frac: 0.048, allUsers: true},
		CBUFMACInput:     {frac: 0.162, rf: 16},
		CBUFMACWeight:    {frac: 0.216, rf: 16},
		OutputPSum:       {frac: 0.379, rf: 1},
		LocalControl:     {frac: 0.057, rf: 1},
		GlobalControl:    {frac: 0.113, all: true},
	}
	for id, w := range want {
		m, err := ByID(models, id)
		if err != nil {
			t.Fatalf("missing model %v", id)
		}
		if math.Abs(m.FFFrac-w.frac) > 1e-9 {
			t.Errorf("%v FFFrac = %v, want %v", id, m.FFFrac, w.frac)
		}
		if m.RF != w.rf || m.RFAllUsers != w.allUsers || m.RFAll != w.all {
			t.Errorf("%v RF=(%d,%v,%v), want (%d,%v,%v)", id, m.RF, m.RFAllUsers, m.RFAll, w.rf, w.allUsers, w.all)
		}
	}
	// %FF column must cover the whole design.
	var sum float64
	for _, m := range models {
		sum += m.FFFrac
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("FF fractions sum to %v", sum)
	}
}

func TestDeriveRejectsBadConfig(t *testing.T) {
	cfg := accel.NVDLASmall()
	cfg.AtomicK = 0
	if _, err := Derive(cfg); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestByIDMissing(t *testing.T) {
	if _, err := ByID(nil, GlobalControl); err == nil {
		t.Error("empty set should fail")
	}
}

func TestIDStrings(t *testing.T) {
	for _, id := range AllIDs() {
		if id.String() == "" {
			t.Errorf("empty string for %d", int(id))
		}
	}
	if ID(99).String() == "" {
		t.Error("unknown ID string empty")
	}
}

// Build a small conv site + execution for plan tests.
func convExec(t *testing.T, codec numerics.Codec, seed int64) (nn.Site, *nn.Operands) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv := nn.NewConv2D("conv", 3, 3, 4, 32, 1, 1, codec).InitRandom(rng, 0.3)
	x := tensor.New(1, 6, 6, 4)
	x.RandNormal(rng, 1)
	x.Apply(codec.Round)
	out := conv.Forward(x, nil)
	return conv, &nn.Operands{In: x, W: conv.W, B: conv.B, Out: out}
}

func newSampler(t *testing.T, seed int64) *Sampler {
	t.Helper()
	s, err := NewSampler(deriveNVDLA(t), seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSamplerRejectsIncompleteSet(t *testing.T) {
	if _, err := NewSampler(nil, 1); err == nil {
		t.Error("empty model set should fail")
	}
	// Each CBUF→MAC model is walked at its own RF, so each must have one.
	for _, id := range []ID{CBUFMACInput, CBUFMACWeight} {
		models := deriveNVDLA(t)
		for i := range models {
			if models[i].ID == id {
				models[i].RF = 0
			}
		}
		if _, err := NewSampler(models, 1); err == nil {
			t.Errorf("a %v model without an RF should fail", id)
		}
	}
}

func TestPlanGlobalControl(t *testing.T) {
	s := newSampler(t, 1)
	site, op := convExec(t, numerics.MustCodec(numerics.FP16, 0), 1)
	p, err := s.Plan(GlobalControl, site, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	if !p.GlobalFailure {
		t.Error("global control plan must mark system failure")
	}
	if ch := Apply(p, site, op); ch != nil {
		t.Error("global plan must not patch outputs")
	}
}

func TestPlanLocalControl(t *testing.T) {
	s := newSampler(t, 2)
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 2)
	golden := op.Out.Clone()
	p, err := s.Plan(LocalControl, site, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Neurons) != 1 {
		t.Fatalf("local control RF must be 1, got %d neurons", len(p.Neurons))
	}
	changes := Apply(p, site, op)
	if len(changes) != 1 {
		t.Fatalf("changes = %d", len(changes))
	}
	diffs := golden.DiffIndices(op.Out, 0)
	if len(diffs) != 1 {
		t.Fatalf("exactly one neuron must change, got %d", len(diffs))
	}
	if got := op.Out.Data()[diffs[0]]; got != p.RandomValue {
		t.Errorf("patched value %v != plan value %v", got, p.RandomValue)
	}
}

func TestPlanOutputPSum(t *testing.T) {
	s := newSampler(t, 3)
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 3)
	golden := op.Out.Clone()
	p, err := s.Plan(OutputPSum, site, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	changes := Apply(p, site, op)
	if len(changes) != 1 {
		t.Fatalf("changes = %d", len(changes))
	}
	// The faulty value must be exactly a bit-flip of the golden value.
	c := changes[0]
	if codec.FlipBit(c.Golden, p.Bit) != c.Faulty {
		t.Errorf("faulty %v is not bit %d flip of %v", c.Faulty, p.Bit, c.Golden)
	}
	if len(golden.DiffIndices(op.Out, 0)) != 1 {
		t.Error("exactly one neuron must change")
	}
}

// CBUF→MAC input model on conv: the faulty neurons must share one 2-D
// position and span consecutive channels (Fig 2a target a4 pattern), and all
// patched values must equal a full recomputation with the flipped input.
func TestPlanCBUFMACInputConv(t *testing.T) {
	s := newSampler(t, 4)
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 4)
	p, err := s.Plan(CBUFMACInput, site, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Neurons) == 0 || len(p.Neurons) > 16 {
		t.Fatalf("neuron window = %d, want 1..16", len(p.Neurons))
	}
	outC := op.Out.Dim(3)
	first := p.Neurons[0]
	for i, off := range p.Neurons {
		if off/outC != first/outC {
			t.Errorf("neuron %d not at same 2D position: offset %d vs %d", i, off, first)
		}
		if i > 0 && off != p.Neurons[i-1]+1 {
			t.Errorf("channels not consecutive at %d", i)
		}
	}
	// Verify patched values against brute-force recomputation.
	conv := site.(*nn.Conv2D)
	x2 := op.In.Clone()
	x2.Data()[p.Override.Flat] = codec.FlipBit(x2.Data()[p.Override.Flat], p.Bit)
	ref := conv.Forward(x2, nil)
	Apply(p, site, op)
	for _, off := range p.Neurons {
		if got, want := op.Out.Data()[off], ref.Data()[off]; got != want {
			t.Fatalf("patched %d = %v, want %v", off, got, want)
		}
	}
}

// CBUF→MAC weight model on conv: ≤16 neurons, all in one output channel,
// consecutive in row-major order (Fig 2a target a1/a2 pattern).
func TestPlanCBUFMACWeightConv(t *testing.T) {
	s := newSampler(t, 5)
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 5)
	sizes := map[int]bool{}
	for trial := 0; trial < 50; trial++ {
		p, err := s.Plan(CBUFMACWeight, site, 0, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Neurons) == 0 || len(p.Neurons) > 16 {
			t.Fatalf("neuron window = %d, want 1..16", len(p.Neurons))
		}
		sizes[len(p.Neurons)] = true
		outC := op.Out.Dim(3)
		oc := p.Neurons[0] % outC
		for _, off := range p.Neurons {
			if off%outC != oc {
				t.Fatalf("weight fault crossed output channels: %v", p.Neurons)
			}
		}
	}
	// The random hold-window offset must produce varying subset sizes
	// ("all or a subset of 16").
	if len(sizes) < 5 {
		t.Errorf("weight subset sizes should vary, got %v", sizes)
	}
}

// Before-CBUF weight model on conv must corrupt all users of the weight:
// every spatial position of one output channel.
func TestPlanBeforeCBUFWeightConv(t *testing.T) {
	s := newSampler(t, 6)
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 6)
	p, err := s.Plan(BeforeCBUFWeight, site, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	os := op.Out.Shape()
	if len(p.Neurons) != os[0]*os[1]*os[2] {
		t.Fatalf("before-CBUF weight affects %d neurons, want %d (all positions of one channel)",
			len(p.Neurons), os[0]*os[1]*os[2])
	}
	golden := op.Out.Clone()
	changes := Apply(p, site, op)
	// Every change must be inside the predicted set.
	pred := map[int]bool{}
	for _, off := range p.Neurons {
		pred[off] = true
	}
	for _, c := range changes {
		if !pred[c.Flat] {
			t.Errorf("change at %d outside predicted set", c.Flat)
		}
	}
	// And the patch must equal brute-force recomputation.
	conv := site.(*nn.Conv2D)
	w2 := conv.W.Clone()
	w2.Data()[p.Override.Flat] = codec.FlipBit(w2.Data()[p.Override.Flat], p.Bit)
	ref := nn.NewConv2D("ref", 3, 3, 4, 32, 1, 1, codec)
	ref.W, ref.B = w2, conv.B
	refOut := ref.Forward(op.In, nil)
	if diffs := refOut.DiffIndices(op.Out, 0); len(diffs) != 0 {
		t.Errorf("patched output differs from brute-force at %d neurons", len(diffs))
	}
	_ = golden
}

// FC plans: CBUF→MAC input affects RF consecutive output neurons; weight
// affects the same output neuron across consecutive batch rows.
func TestPlanFCPatterns(t *testing.T) {
	s := newSampler(t, 7)
	codec := numerics.MustCodec(numerics.FP16, 0)
	rng := rand.New(rand.NewSource(7))
	fc := nn.NewDense("fc", 64, 48, codec).InitRandom(rng, 0.2)
	x := tensor.New(20, 64) // 20 "rows" (e.g. sequence positions)
	x.RandNormal(rng, 1)
	x.Apply(codec.Round)
	out := fc.Forward(x, nil)
	op := &nn.Operands{In: x, W: fc.W, B: fc.B, Out: out}

	p, err := s.Plan(CBUFMACInput, fc, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Neurons) == 0 || len(p.Neurons) > 16 {
		t.Fatalf("FC input window = %d", len(p.Neurons))
	}
	b := p.Neurons[0] / 48
	for i, off := range p.Neurons {
		if off/48 != b {
			t.Error("FC input fault crossed batch rows")
		}
		if i > 0 && off != p.Neurons[i-1]+1 {
			t.Error("FC input neurons not consecutive")
		}
	}

	p, err = s.Plan(CBUFMACWeight, fc, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Neurons) == 0 || len(p.Neurons) > 16 {
		t.Fatalf("FC weight window = %d", len(p.Neurons))
	}
	o := p.Neurons[0] % 48
	for _, off := range p.Neurons {
		if off%48 != o {
			t.Error("FC weight fault must hit one output neuron index across rows")
		}
	}
}

// MatMul plans: input affects consecutive neurons of one row, weight affects
// consecutive neurons of one column.
func TestPlanMatMulPatterns(t *testing.T) {
	s := newSampler(t, 8)
	codec := numerics.MustCodec(numerics.FP16, 0)
	rng := rand.New(rand.NewSource(8))
	mm := nn.NewMatMulSite("mm", false, 0, codec)
	a, b := tensor.New(24, 32), tensor.New(32, 24)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	out := mm.Run(a, b, nil)
	op := &nn.Operands{In: a, W: b, Out: out}

	p, err := s.Plan(CBUFMACInput, mm, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	row := p.Neurons[0] / 24
	for _, off := range p.Neurons {
		if off/24 != row {
			t.Error("matmul input fault crossed rows")
		}
	}
	p, err = s.Plan(CBUFMACWeight, mm, 0, op)
	if err != nil {
		t.Fatal(err)
	}
	col := p.Neurons[0] % 24
	for _, off := range p.Neurons {
		if off%24 != col {
			t.Error("matmul weight fault crossed columns")
		}
	}
}

// Quantized datapaths: the flipped operand and patched outputs stay within
// codec-representable values.
func TestPlanQuantizedRepresentable(t *testing.T) {
	s := newSampler(t, 9)
	codec := numerics.MustCodec(numerics.INT8, 8)
	site, op := convExec(t, codec, 9)
	for _, id := range []ID{CBUFMACInput, CBUFMACWeight, OutputPSum} {
		p, err := s.Plan(id, site, 0, op)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range Apply(p, site, op) {
			if codec.Round(c.Faulty) != c.Faulty {
				t.Errorf("%v: faulty value %v not representable in INT8", id, c.Faulty)
			}
		}
	}
}

// Apply reports the neurons that moved in the order the plan lists them, with
// their row-major output offsets: an input fault under a 3×3 kernel reaches
// all channels of nine pixels, pixel by pixel, and a flipped exponent bit
// moves nearly every one of them.
func TestApplyChangeOrder(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	site, op := convExec(t, codec, 9)
	flat := op.In.Offset(0, 2, 3, 1)
	p := &Plan{Model: BeforeCBUFInput, SiteName: site.Name(), Bit: 13,
		Override: &nn.Override{Kind: nn.OperandInput, Flat: flat},
		Neurons:  site.NeuronsUsingOperand(op, nn.OperandInput, flat, nil)}
	if want := 9 * op.Out.Dim(3); len(p.Neurons) != want {
		t.Fatalf("reuse set has %d neurons, want %d", len(p.Neurons), want)
	}
	ov := *p.Override
	ov.Value = codec.FlipBit(op.In.Data()[flat], p.Bit)
	var want []Change
	for _, off := range p.Neurons {
		golden := op.Out.Data()[off]
		if faulty := site.ComputeNeuron(op, off, &ov); faulty != golden {
			want = append(want, Change{Flat: off, Golden: golden, Faulty: faulty})
		}
	}
	if len(want) < len(p.Neurons)/2 {
		t.Fatalf("only %d of %d neurons moved: the fault is too weak to test an order", len(want), len(p.Neurons))
	}
	got := Apply(p, site, op)
	if len(got) != len(want) {
		t.Fatalf("Apply reports %d changes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("change %d = %+v, want %+v", i, got[i], want[i])
		}
		if op.Out.Data()[got[i].Flat] != got[i].Faulty {
			t.Fatalf("change %d: output holds %v, reported faulty %v", i, op.Out.Data()[got[i].Flat], got[i].Faulty)
		}
	}
}
