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

// validationFFs lists the simulated FF groups Validate strikes.
var validationFFs = []rtlsim.FF{
	rtlsim.FFCDMAIn0, rtlsim.FFCDMAIn1, rtlsim.FFCDMAWt0, rtlsim.FFCDMAWt1,
	rtlsim.FFInputReg, rtlsim.FFWLoad, rtlsim.FFWReg, rtlsim.FFProd, rtlsim.FFOutReg,
	rtlsim.FFValid,
	rtlsim.FFCfgPos, rtlsim.FFCfgCh, rtlsim.FFCfgRed,
	rtlsim.FFCtrBlk, rtlsim.FFCtrGrp, rtlsim.FFCtrR, rtlsim.FFCtrDx,
}

// ffModel maps a simulated FF group to the Table II model that covers it.
func ffModel(ff rtlsim.FF) faultmodel.ID {
	switch ff {
	case rtlsim.FFCDMAIn0, rtlsim.FFCDMAIn1:
		return faultmodel.BeforeCBUFInput
	case rtlsim.FFCDMAWt0, rtlsim.FFCDMAWt1:
		return faultmodel.BeforeCBUFWeight
	case rtlsim.FFInputReg:
		return faultmodel.CBUFMACInput
	case rtlsim.FFWLoad, rtlsim.FFWReg:
		return faultmodel.CBUFMACWeight
	case rtlsim.FFProd, rtlsim.FFOutReg:
		return faultmodel.OutputPSum
	case rtlsim.FFValid:
		return faultmodel.LocalControl
	}
	return faultmodel.GlobalControl
}

// Validate runs the Sec. IV validation campaign: samplesPerWorkload RTL
// fault injections per Table III workload, with each non-masked case
// compared against the plan of its Table II model — the campaign's own walk
// and Apply, at the RFs Derive gives cfg — fixed to where the fault landed.
// A non-positive sample count is an *OptionError: a campaign that checks
// nothing must not read as agreement.
func Validate(cfg *accel.Config, workloads []*ValWorkload, samplesPerWorkload int, seed int64) (*ValidationReport, error) {
	if samplesPerWorkload <= 0 {
		return nil, &OptionError{"samples", fmt.Sprintf("must be positive (got %d)", samplesPerWorkload)}
	}
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	// PlanAt fixes every draw: the sampler's stream is never read.
	sampler, err := faultmodel.NewSampler(models, 0)
	if err != nil {
		return nil, err
	}
	// Each FF group is drawn with its model's census fraction, split evenly
	// among the groups of that model.
	groups := map[faultmodel.ID]float64{}
	for _, ff := range validationFFs {
		groups[ffModel(ff)]++
	}
	weights := make([]float64, len(validationFFs))
	var totalW float64
	for i, ff := range validationFFs {
		m, _ := faultmodel.ByID(models, ffModel(ff)) // a model cfg lacks weighs 0
		weights[i] = m.FFFrac / groups[ffModel(ff)]
		totalW += weights[i]
	}

	rng := rand.New(faultmodel.NewStreamSource(seed))
	rep := &ValidationReport{}
	for _, w := range workloads {
		v, err := newValidator(cfg, sampler, w)
		if err != nil {
			return nil, err
		}
		fetchEnd, computeEnd := v.ref.ComputeWindow()
		for i := 0; i < samplesPerWorkload; i++ {
			// Sample an FF group by census weight, then a cycle in the
			// design's full execution window and a random bit.
			ff := validationFFs[faultmodel.Weighted(rng, weights, totalW)]
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
			v.validateOne(f, rep)
		}
	}
	return rep, nil
}

// validator checks RTL injections into one workload against the plans of
// the campaign's fault models.
type validator struct {
	cfg     *accel.Config
	sampler *faultmodel.Sampler
	w       *ValWorkload
	ref     *rtlsim.Reference // the golden run every injection resumes from
	op      *nn.Operands      // golden; Apply's changes are undone after each check
	out     *tensor.Tensor    // every injection's output
	plan    faultmodel.Plan
}

func newValidator(cfg *accel.Config, sampler *faultmodel.Sampler, w *ValWorkload) (*validator, error) {
	ref, err := rtlsim.NewReference(cfg, w.RTL)
	if err != nil {
		return nil, fmt.Errorf("campaign: golden run of %s: %w", w.Name, err)
	}
	golden := ref.Golden().Out
	return &validator{cfg: cfg, sampler: sampler, w: w, ref: ref,
		op: w.operands(golden), out: tensor.New(golden.Shape()...)}, nil
}

// validateOne runs one RTL injection and checks it against the plan of its
// FF's model that reaches the struck element and the first neuron the fault
// does: exactly, by Apply, where the fault's value is the struck register's;
// by the corrupted set where it is not (products, valid bits, a padding
// zero in the input register).
func (v *validator) validateOne(f *rtlsim.Fault, rep *ValidationReport) {
	rep.Total++
	golden := v.ref.Golden().Out
	faulty := v.ref.Run(*f, v.out)
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
				fmt.Sprintf("%s: non-global fault %v timed out", v.w.Name, f))
		}
		return
	}
	if !faulty.FaultApplied {
		return // never fired: the output is the golden one
	}
	masked := golden.Equal(faulty.Out)
	if f.FF.Class() == accel.GlobalControl {
		rep.GlobalFired++
		if masked {
			rep.GlobalMasked++
		} else {
			rep.NonMasked++
		}
		return
	}
	if masked {
		return // masked; software models only describe non-masked behaviour
	}
	rep.NonMasked++

	id := ffModel(f.FF)
	si := v.ref.Locate(f.Cycle)
	mac := f.Mac
	if f.FF == rtlsim.FFInputReg {
		mac = 0 // the input register is broadcast: its group's first MAC
	}
	// Codec.FlipBit takes a wider register's bit modulo the codec's width.
	at := faultmodel.Located{Flat: -1, Neuron: -1, Bit: f.Bit % v.w.Site.Codec().Bits()}
	if idx, err := v.ref.OutIndexOf(si.Position(v.cfg), si.Channel(v.cfg, mac)); err == nil {
		at.Neuron = golden.Offset(idx...)
	}
	switch id {
	case faultmodel.BeforeCBUFInput, faultmodel.BeforeCBUFWeight:
		// Fetch stage 0 holds element Cycle, stage 1 the one before it.
		at.Flat = int(f.Cycle)
		if f.FF == rtlsim.FFCDMAIn1 || f.FF == rtlsim.FFCDMAWt1 {
			at.Flat--
		}
	case faultmodel.CBUFMACInput:
		at.Flat, _ = v.ref.OperandIndices(si, 0)
	case faultmodel.CBUFMACWeight:
		_, at.Flat = v.ref.OperandIndices(si, f.Mac)
	}
	checked, matched, exact := &rep.DatapathChecked, &rep.DatapathExact, true
	switch {
	case f.FF == rtlsim.FFValid:
		checked, matched, exact = &rep.LocalChecked, &rep.LocalMatch, false
	case f.FF == rtlsim.FFProd || id == faultmodel.CBUFMACInput && at.Flat < 0:
		checked, matched, exact = &rep.SetChecked, &rep.SetMatch, false
	}
	*checked++
	err := v.sampler.PlanAt(&v.plan, id, v.w.Site, v.op, at)
	switch {
	case err != nil:
	case exact:
		err = v.apply(f, faulty.Out)
	case !setCovers(golden, faulty.Out, v.plan.Neurons):
		err = fmt.Errorf("corrupted neurons outside the %d predicted", len(v.plan.Neurons))
	}
	if err != nil {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s: %v fault %v: %v", v.w.Name, id, f, err))
		return
	}
	*matched++
}

// apply runs the plan, with the fault's extra bits, on the golden operands
// and compares the result with the RTL's; the operands are golden again
// after.
func (v *validator) apply(f *rtlsim.Fault, rtl *tensor.Tensor) error {
	v.plan.ExtraBits = f.ExtraBits
	changes := faultmodel.Apply(&v.plan, v.w.Site, v.op)
	var err error
	if !v.op.Out.Equal(rtl) {
		err = fmt.Errorf("software model diverges from RTL at %d neurons", len(v.op.Out.DiffIndices(rtl, 0)))
	}
	out := v.op.Out.Data()
	for _, c := range changes {
		out[c.Flat] = c.Golden
	}
	return err
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
