package campaign

import (
	"fmt"
	"math/rand"
	"slices"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/rtlsim"
	"fidelity/internal/tensor"
)

// ValWorkload is one Table III validation workload: a single DNN layer
// realized both as an rtlsim layer (the golden reference) and as an nn site
// (the software fault-model target), sharing operand data.
type ValWorkload struct {
	Name  string
	RTL   *rtlsim.Layer
	Site  nn.Site
	Input *tensor.Tensor // software-layer input (operand A)
}

// TableIIIWorkloads builds the validation workload set of paper Table III:
// 3×3 conv layers (Inception, ResNet, Yolo), FC layers (Transformer
// feed-forward, RNN/LSTM gate), and an attention MatMul, all FP16.
func TableIIIWorkloads() ([]*ValWorkload, error) {
	codec, err := numerics.NewCodec(numerics.FP16, 0)
	if err != nil {
		return nil, err
	}
	var out []*ValWorkload

	conv := func(name string, seed int64, h, w, inC, outC, kh, stride, pad int) {
		rng := rand.New(faultmodel.NewStreamSource(seed))
		c := nn.NewConv2D(name, kh, kh, inC, outC, stride, pad, codec).InitRandom(rng, 0.4)
		x := tensor.New(1, h, w, inC)
		x.RandNormal(rng, 1)
		out = append(out, &ValWorkload{
			Name:  name,
			RTL:   rtlsim.ConvLayer(x, c.W, c.B.Data(), stride, pad, codec),
			Site:  c,
			Input: x,
		})
	}
	fc := func(name string, seed int64, rows, in, outN int) {
		rng := rand.New(faultmodel.NewStreamSource(seed))
		d := nn.NewDense(name, in, outN, codec).InitRandom(rng, 0.3)
		x := tensor.New(rows, in)
		x.RandNormal(rng, 1)
		out = append(out, &ValWorkload{
			Name:  name,
			RTL:   rtlsim.MatMulLayer(accel.LayerFC, x, d.W, d.B.Data(), codec),
			Site:  d,
			Input: x,
		})
	}

	conv("inception-conv3x3", 101, 8, 8, 4, 18, 3, 1, 1)
	conv("resnet-conv3x3", 102, 9, 7, 3, 20, 3, 1, 1)
	conv("yolo-conv3x3", 103, 10, 10, 4, 12, 3, 2, 1)
	fc("transformer-fc", 104, 20, 24, 18)
	fc("rnn-lstm-fc", 105, 8, 30, 16)

	// Attention MatMul.
	rng := rand.New(faultmodel.NewStreamSource(106))
	mm := nn.NewMatMulSite("transformer-matmul", false, 0, codec)
	a := tensor.New(18, 16)
	b := tensor.New(16, 18)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	out = append(out, &ValWorkload{
		Name:  "transformer-matmul",
		RTL:   rtlsim.MatMulLayer(accel.LayerMatMul, a, b, nil, codec),
		Site:  mm,
		Input: a,
	})
	return out, nil
}

// operands builds the software operand view for a validation workload,
// with Out initialized to the golden output.
func (w *ValWorkload) operands(golden *tensor.Tensor) *nn.Operands {
	op := &nn.Operands{Out: golden.Clone()}
	switch s := w.Site.(type) {
	case *nn.Conv2D:
		op.In, op.W, op.B = w.Input, s.W, s.B
	case *nn.Dense:
		op.In, op.W, op.B = w.Input, s.W, s.B
	case *nn.MatMulSite:
		op.In, op.W = w.Input, w.RTL.W
	}
	return op
}

// ValidationReport tallies the Sec. IV comparison.
type ValidationReport struct {
	// Total is the number of RTL fault-injection experiments run.
	Total int
	// Fired counts experiments whose fault hit a live FF.
	Fired int
	// NonMasked counts experiments with output errors or time-outs.
	NonMasked int
	// Timeouts counts system time-outs (all from global control faults).
	Timeouts int

	// DatapathChecked/DatapathExact: non-masked datapath cases where the
	// software fault model's faulty neuron set AND values were compared /
	// matched exactly.
	DatapathChecked, DatapathExact int
	// SetChecked/SetMatch: RF=1 cases (products, valid bits) where the
	// faulty neuron location is deterministic but the value is not; the
	// comparison is on the neuron set.
	SetChecked, SetMatch int
	// LocalChecked/LocalMatch: local-control cases (RF = 1, same neuron).
	LocalChecked, LocalMatch int
	// GlobalFired/GlobalMasked: active global-control faults and how many
	// of them were nevertheless masked (the paper observed ~9.5%).
	GlobalFired, GlobalMasked int

	// Mismatches holds diagnostics for any disagreement.
	Mismatches []string
}

// GlobalMaskedFrac returns the fraction of active global-control faults that
// were masked.
func (r *ValidationReport) GlobalMaskedFrac() float64 {
	if r.GlobalFired == 0 {
		return 0
	}
	return float64(r.GlobalMasked) / float64(r.GlobalFired)
}

// datapathFFs lists the (FF, weight) sampling choices for datapath faults,
// weighted by the census fractions of their categories.
type ffChoice struct {
	ff     rtlsim.FF
	weight float64
}

// Validate runs the Sec. IV validation campaign: samplesPerWorkload RTL
// fault injections per Table III workload, with each non-masked case
// compared against the corresponding software fault model. A non-positive
// sample count is an *OptionError: a campaign that checks nothing must not
// read as agreement.
func Validate(cfg *accel.Config, workloads []*ValWorkload, samplesPerWorkload int, seed int64) (*ValidationReport, error) {
	if samplesPerWorkload <= 0 {
		return nil, &OptionError{"samples", fmt.Sprintf("must be positive (got %d)", samplesPerWorkload)}
	}
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	frac := func(id faultmodel.ID) float64 {
		m, err := faultmodel.ByID(models, id)
		if err != nil {
			return 0
		}
		return m.FFFrac
	}
	choices := []ffChoice{
		{rtlsim.FFCDMAIn0, frac(faultmodel.BeforeCBUFInput) / 2},
		{rtlsim.FFCDMAIn1, frac(faultmodel.BeforeCBUFInput) / 2},
		{rtlsim.FFCDMAWt0, frac(faultmodel.BeforeCBUFWeight) / 2},
		{rtlsim.FFCDMAWt1, frac(faultmodel.BeforeCBUFWeight) / 2},
		{rtlsim.FFInputReg, frac(faultmodel.CBUFMACInput)},
		{rtlsim.FFWLoad, frac(faultmodel.CBUFMACWeight) / 2},
		{rtlsim.FFWReg, frac(faultmodel.CBUFMACWeight) / 2},
		{rtlsim.FFProd, frac(faultmodel.OutputPSum) / 2},
		{rtlsim.FFOutReg, frac(faultmodel.OutputPSum) / 2},
		{rtlsim.FFValid, frac(faultmodel.LocalControl)},
		{rtlsim.FFCfgPos, frac(faultmodel.GlobalControl) / 7},
		{rtlsim.FFCfgCh, frac(faultmodel.GlobalControl) / 7},
		{rtlsim.FFCfgRed, frac(faultmodel.GlobalControl) / 7},
		{rtlsim.FFCtrBlk, frac(faultmodel.GlobalControl) / 7},
		{rtlsim.FFCtrGrp, frac(faultmodel.GlobalControl) / 7},
		{rtlsim.FFCtrR, frac(faultmodel.GlobalControl) / 7},
		{rtlsim.FFCtrDx, frac(faultmodel.GlobalControl) / 7},
	}
	weights := make([]float64, len(choices))
	var totalW float64
	for i, c := range choices {
		weights[i] = c.weight
		totalW += c.weight
	}

	rng := rand.New(faultmodel.NewStreamSource(seed))
	rep := &ValidationReport{}
	for _, w := range workloads {
		// One golden run per workload; every injection resumes from it.
		ref, err := rtlsim.NewReference(cfg, w.RTL)
		if err != nil {
			return nil, fmt.Errorf("campaign: golden run of %s: %w", w.Name, err)
		}
		fetchEnd, computeEnd := ref.ComputeWindow()
		out := tensor.New(ref.Golden().Out.Shape()...) // every injection's output
		for i := 0; i < samplesPerWorkload; i++ {
			// Sample an FF group by census weight, then a cycle in the
			// design's full execution window and a random bit.
			ff := choices[faultmodel.Weighted(rng, weights, totalW)].ff
			f := &rtlsim.Fault{
				FF:    ff,
				Mac:   rng.Intn(cfg.AtomicK),
				Bit:   rng.Intn(16),
				Cycle: rng.Int63n(computeEnd),
			}
			if ff.Class() == accel.GlobalControl {
				// Config/counter faults are only meaningful during compute.
				f.Cycle = fetchEnd + rng.Int63n(computeEnd-fetchEnd)
			}
			if err := validateOne(cfg, w, ref, f, out, rep); err != nil {
				return nil, fmt.Errorf("campaign: %s fault %v: %w", w.Name, f, err)
			}
		}
	}
	return rep, nil
}

// validateOne runs one RTL injection into out and checks it against the
// software fault model's prediction.
func validateOne(cfg *accel.Config, w *ValWorkload, ref *rtlsim.Reference, f *rtlsim.Fault, out *tensor.Tensor, rep *ValidationReport) error {
	rep.Total++
	golden := ref.Golden().Out
	faulty := ref.Run(*f, out)
	if faulty.FaultApplied {
		rep.Fired++
	}
	if faulty.TimedOut {
		rep.Timeouts++
		rep.NonMasked++
		if f.FF.Class() == accel.GlobalControl {
			rep.GlobalFired++
		} else {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: non-global fault %v timed out", w.Name, f))
		}
		return nil
	}
	if !faulty.FaultApplied {
		return nil // never fired: the output is the golden one
	}
	masked := golden.Equal(faulty.Out)
	if f.FF.Class() == accel.GlobalControl {
		rep.GlobalFired++
		if masked {
			rep.GlobalMasked++
		} else {
			rep.NonMasked++
		}
		return nil
	}
	if masked {
		return nil // masked; software models only describe non-masked behaviour
	}
	rep.NonMasked++

	si := ref.Locate(f.Cycle)
	switch f.FF {
	case rtlsim.FFCDMAIn0, rtlsim.FFCDMAIn1, rtlsim.FFCDMAWt0, rtlsim.FFCDMAWt1:
		return rep.checkRecompute(w, golden, faulty.Out, cdmaOverride(w, f), f)
	case rtlsim.FFInputReg:
		inIdx, _ := ref.OperandIndices(si, 0)
		if inIdx < 0 {
			// Fault on a padding-zero operand: outside the software fault
			// models (no stored tensor element corresponds); count as a
			// set-only check of the affected position/group.
			return rep.checkNeuronSet(cfg, w, golden, faulty.Out, groupNeurons(cfg, ref, si))
		}
		ov := &nn.Override{Kind: nn.OperandInput, Flat: inIdx}
		return rep.checkRecomputeAt(w, golden, faulty.Out, ov, f, groupNeurons(cfg, ref, si))
	case rtlsim.FFWLoad, rtlsim.FFWReg:
		_, wIdx := ref.OperandIndices(si, f.Mac)
		if wIdx < 0 {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: weight fault %v corrupted outputs without a live weight", w.Name, f))
			return nil
		}
		start := si.Dx
		if f.FF == rtlsim.FFWLoad {
			start = 0
		}
		ov := &nn.Override{Kind: nn.OperandWeight, Flat: wIdx}
		return rep.checkRecomputeAt(w, golden, faulty.Out, ov, f, weightNeurons(cfg, ref, si, f.Mac, start))
	case rtlsim.FFOutReg:
		p := si.Position(cfg)
		c := si.Channel(cfg, f.Mac)
		idx, err := ref.OutIndexOf(p, c)
		if err != nil {
			return err
		}
		expect := golden.Clone()
		expect.Set(f.Flip(w.Site.Codec(), expect.At(idx...)), idx...)
		rep.DatapathChecked++
		if expect.Equal(faulty.Out) {
			rep.DatapathExact++
		} else {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: out-reg fault %v value mismatch at %v", w.Name, f, idx))
		}
		return nil
	case rtlsim.FFProd:
		return rep.checkNeuronSet(cfg, w, golden, faulty.Out, singleNeuron(cfg, ref, si, f.Mac))
	case rtlsim.FFValid:
		set := singleNeuron(cfg, ref, si, f.Mac)
		rep.LocalChecked++
		if setCovers(golden, faulty.Out, set) {
			rep.LocalMatch++
		} else {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: valid fault %v outside predicted neuron", w.Name, f))
		}
		return nil
	}
	return nil
}

// cdmaOverride maps a CDMA fault to its software operand override.
func cdmaOverride(w *ValWorkload, f *rtlsim.Fault) *nn.Override {
	elem := int(f.Cycle)
	if f.FF == rtlsim.FFCDMAIn1 || f.FF == rtlsim.FFCDMAWt1 {
		elem--
	}
	kind := nn.OperandInput
	if f.FF == rtlsim.FFCDMAWt0 || f.FF == rtlsim.FFCDMAWt1 {
		kind = nn.OperandWeight
	}
	return &nn.Override{Kind: kind, Flat: elem}
}

// checkRecompute validates an "all users" model: recompute every neuron that
// uses the flipped element and require an exact full-tensor match.
func (rep *ValidationReport) checkRecompute(w *ValWorkload, golden, faulty *tensor.Tensor, ov *nn.Override, f *rtlsim.Fault) error {
	op := w.operands(golden)
	neurons := w.Site.NeuronsUsingOperand(op, ov.Kind, ov.Flat, nil)
	return rep.applyAndCompare(w, op, faulty, ov, f, neurons)
}

// checkRecomputeAt validates a windowed model: recompute exactly the
// predicted neuron set.
func (rep *ValidationReport) checkRecomputeAt(w *ValWorkload, golden, faulty *tensor.Tensor, ov *nn.Override, f *rtlsim.Fault, neurons []int) error {
	op := w.operands(golden)
	return rep.applyAndCompare(w, op, faulty, ov, f, neurons)
}

func (rep *ValidationReport) applyAndCompare(w *ValWorkload, op *nn.Operands, faulty *tensor.Tensor, ov *nn.Override, f *rtlsim.Fault, neurons []int) error {
	codec := w.Site.Codec()
	var stored float32
	switch ov.Kind {
	case nn.OperandInput:
		stored = op.In.Data()[ov.Flat]
	case nn.OperandWeight:
		stored = op.W.Data()[ov.Flat]
	}
	ov.Value = f.Flip(codec, stored)
	vals := make([]float32, len(neurons))
	w.Site.ComputeNeurons(op, neurons, ov, vals)
	for i, off := range neurons {
		op.Out.Data()[off] = vals[i]
	}
	rep.DatapathChecked++
	if op.Out.Equal(faulty) {
		rep.DatapathExact++
	} else {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("%s: fault %v: software model diverges from RTL at %d neurons",
				w.Name, f, len(op.Out.DiffIndices(faulty, 0))))
	}
	return nil
}

// checkNeuronSet validates set-only predictions (value is non-deterministic
// in the software model): every RTL-corrupted neuron must be inside the
// predicted set.
func (rep *ValidationReport) checkNeuronSet(cfg *accel.Config, w *ValWorkload, golden, faulty *tensor.Tensor, set []int) error {
	rep.SetChecked++
	if setCovers(golden, faulty, set) {
		rep.SetMatch++
	} else {
		rep.Mismatches = append(rep.Mismatches,
			fmt.Sprintf("%s: corrupted neurons outside predicted set of %d", w.Name, len(set)))
	}
	return nil
}

// setCovers reports whether all diffs between golden and faulty fall inside
// the predicted neuron set.
func setCovers(golden, faulty *tensor.Tensor, set []int) bool {
	for _, off := range golden.DiffIndices(faulty, 0) {
		if !slices.Contains(set, off) {
			return false
		}
	}
	return true
}

// groupNeurons is the Fig 2a target-a4 prediction: the position's full
// channel group.
func groupNeurons(cfg *accel.Config, ref *rtlsim.Reference, si rtlsim.SiteInfo) []int {
	p := si.Position(cfg)
	_, numCh, _ := ref.Dims()
	var out []int
	for c := si.Grp * cfg.AtomicK; c < min(numCh, (si.Grp+1)*cfg.AtomicK); c++ {
		if idx, err := ref.OutIndexOf(p, c); err == nil {
			out = append(out, ref.Golden().Out.Offset(idx...))
		}
	}
	return out
}

// weightNeurons is the Fig 2a target-a1/a2 prediction: the block positions
// from start onward in MAC mac's channel.
func weightNeurons(cfg *accel.Config, ref *rtlsim.Reference, si rtlsim.SiteInfo, mac, start int) []int {
	c := si.Grp*cfg.AtomicK + mac
	var out []int
	for dx := start; dx < si.BlockSize; dx++ {
		if idx, err := ref.OutIndexOf(si.Blk*cfg.WeightHoldCycles+dx, c); err == nil {
			out = append(out, ref.Golden().Out.Offset(idx...))
		}
	}
	return out
}

// singleNeuron is the RF=1 prediction.
func singleNeuron(cfg *accel.Config, ref *rtlsim.Reference, si rtlsim.SiteInfo, mac int) []int {
	idx, err := ref.OutIndexOf(si.Position(cfg), si.Channel(cfg, mac))
	if err != nil {
		return nil
	}
	return []int{ref.Golden().Out.Offset(idx...)}
}
