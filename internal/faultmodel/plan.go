package faultmodel

import (
	"fmt"
	"math/rand"

	"fidelity/internal/nn"
)

// Plan is one concrete, fully sampled fault-injection instance: the software
// realization of a single-cycle FF bit-flip at a random fault site mapped
// onto one layer execution.
type Plan struct {
	// Model is the software fault model applied.
	Model ID
	// SiteName names the layer execution targeted.
	SiteName string
	// Visit is the execution count of the site to target (for sites that
	// run multiple times per inference, e.g. LSTM gates).
	Visit int

	// Override carries the flipped operand for datapath models that
	// recompute neurons (nil for OutputPSum/LocalControl/GlobalControl).
	Override *nn.Override
	// Bit is the flipped bit position.
	Bit int
	// ExtraBits lists additional bits flipped in the same register — the
	// paper's "multiple single-cycle bit-flips in a single register"
	// abstraction. Empty for plain SEUs.
	ExtraBits []int
	// Neurons are the output multi-indices to patch.
	Neurons [][]int
	// RandomValue is the replacement value for LocalControl plans.
	RandomValue float32
	// GlobalFailure marks a GlobalControl plan: the run is classified as a
	// system failure without executing.
	GlobalFailure bool
}

// Sampler draws fault-injection plans using the accelerator's reuse
// parameters (RF and neuron patterns per layer kind from Table II).
type Sampler struct {
	models map[ID]Model
	rf     int // the CBUF→MAC reuse factor (16 for NVDLA)
	src    rand.Source64
	rng    *rand.Rand
}

// NewSampler builds a sampler over a derived model set.
func NewSampler(models []Model, seed int64) (*Sampler, error) {
	byID := make(map[ID]Model, len(models))
	for _, m := range models {
		byID[m.ID] = m
	}
	cm, ok := byID[CBUFMACInput]
	if !ok || cm.RF <= 0 {
		return nil, fmt.Errorf("faultmodel: model set lacks a CBUF→MAC input model with positive RF")
	}
	src := NewStreamSource(seed)
	return &Sampler{models: byID, rf: cm.RF, src: src, rng: rand.New(src)}, nil
}

// Reseed repositions the sampler at the start of a fresh stream without
// rebuilding the model tables. Campaigns call it before every experiment to
// give each one an independent, cursor-derived stream: a panicking or hung
// experiment then cannot perturb the draws of any other experiment.
func (s *Sampler) Reseed(seed int64) { s.src.Seed(seed) }

// Rand exposes the sampler's RNG for callers that need coordinated
// randomness (e.g. input selection in campaigns).
func (s *Sampler) Rand() *rand.Rand { return s.rng }

// Plan samples a concrete injection for model id against one recorded layer
// execution. op must be the operand set of that execution (shapes only are
// used for sampling; values are read at apply time).
func (s *Sampler) Plan(id ID, site nn.Site, visit int, op *nn.Operands) (*Plan, error) {
	m, ok := s.models[id]
	if !ok {
		return nil, fmt.Errorf("faultmodel: unknown model %v", id)
	}
	p := &Plan{Model: id, SiteName: site.Name(), Visit: visit}
	switch id {
	case GlobalControl:
		p.GlobalFailure = true
		return p, nil

	case LocalControl:
		// RF = 1: one random output neuron receives a non-deterministic
		// value, modeled as a uniformly random bit pattern of the datapath
		// width (Sec. III-C).
		flat := s.rng.Intn(op.Out.Size())
		p.Neurons = [][]int{op.Out.Unflatten(flat)}
		codec := site.Codec()
		bits := uint32(s.rng.Int63()) & (uint32(1)<<uint(codec.Bits()) - 1)
		p.RandomValue = codec.Decode(bits)
		return p, nil

	case OutputPSum:
		// RF = 1: a bit-flip in the stored value of one output neuron.
		flat := s.rng.Intn(op.Out.Size())
		p.Neurons = [][]int{op.Out.Unflatten(flat)}
		p.Bit = s.rng.Intn(site.Codec().Bits())
		return p, nil

	case BeforeCBUFInput, BeforeCBUFWeight:
		kind := nn.OperandInput
		target := op.In
		if id == BeforeCBUFWeight {
			kind = nn.OperandWeight
			target = op.W
		}
		if target == nil {
			return nil, fmt.Errorf("faultmodel: site %s has no %v operand", site.Name(), kind)
		}
		flat := s.rng.Intn(target.Size())
		p.Bit = s.rng.Intn(site.Codec().Bits())
		p.Override = &nn.Override{Kind: kind, Flat: flat}
		// All neurons that use the value (Table I row 1: determined by the
		// scheduling/reuse algorithm — values in the on-chip buffer are
		// reused for every MAC operation involving them). A buffer entry
		// that no output consumes (e.g. an input pixel skipped by a strided
		// kernel) yields an empty set: the fault is architecturally masked.
		p.Neurons = site.NeuronsUsingOperand(op, kind, flat)
		return p, nil

	case CBUFMACInput:
		return s.planCBUFInput(p, m, site, op)

	case CBUFMACWeight:
		return s.planCBUFWeight(p, m, site, op)
	}
	return nil, fmt.Errorf("faultmodel: unhandled model %v", id)
}

// planCBUFInput realizes the Table II CBUF→MAC input row: the faulty input
// value reaches the RF parallel compute units, so RF neurons that share the
// value are corrupted. The RF-neuron window follows the layer kind's
// schedule mapping.
func (s *Sampler) planCBUFInput(p *Plan, m Model, site nn.Site, op *nn.Operands) (*Plan, error) {
	if op.In == nil {
		return nil, fmt.Errorf("faultmodel: site %s has no input operand", site.Name())
	}
	// Only values that actually stream through the broadcast register can be
	// struck there, so resample until the element has users (strided kernels
	// can leave some buffer entries unread).
	var flat int
	var users [][]int
	for try := 0; ; try++ {
		flat = s.rng.Intn(op.In.Size())
		users = site.NeuronsUsingOperand(op, nn.OperandInput, flat)
		if len(users) > 0 {
			break
		}
		if try >= 64 {
			return nil, fmt.Errorf("faultmodel: no used input element found at site %s", site.Name())
		}
	}
	p.Bit = s.rng.Intn(site.Codec().Bits())
	p.Override = &nn.Override{Kind: nn.OperandInput, Flat: flat}
	switch site.Kind() {
	case nn.KindConv:
		// RF neurons at the same 2-D position spanning RF consecutive
		// channels (Fig 2a target a4). Pick one using position, then the
		// aligned channel block containing its channel.
		u := users[s.rng.Intn(len(users))]
		cdim := op.Out.Dim(op.Out.Rank() - 1)
		c0 := (u[len(u)-1] / s.rf) * s.rf
		p.Neurons = nil
		for c := c0; c < c0+s.rf && c < cdim; c++ {
			idx := append(append([]int(nil), u[:len(u)-1]...), c)
			p.Neurons = append(p.Neurons, idx)
		}
	default:
		// FC: RF consecutive output neurons of the using row; MatMul: RF
		// consecutive neurons in the using output row. users are already
		// ordered along that row.
		start := (s.rng.Intn(len(users)) / s.rf) * s.rf
		end := start + s.rf
		if end > len(users) {
			end = len(users)
		}
		p.Neurons = users[start:end]
	}
	return p, nil
}

// planCBUFWeight realizes the Table II CBUF→MAC weight row: the weight
// register holds its value for up to RF cycles, so a random injection cycle
// corrupts a suffix of the RF-neuron window — "all or a subset of" the RF
// consecutive neurons that reuse the weight (Fig 2a target a2).
func (s *Sampler) planCBUFWeight(p *Plan, m Model, site nn.Site, op *nn.Operands) (*Plan, error) {
	if op.W == nil {
		return nil, fmt.Errorf("faultmodel: site %s has no weight operand", site.Name())
	}
	var flat int
	var users [][]int
	for try := 0; ; try++ {
		flat = s.rng.Intn(op.W.Size())
		users = site.NeuronsUsingOperand(op, nn.OperandWeight, flat)
		if len(users) > 0 {
			break
		}
		if try >= 64 {
			return nil, fmt.Errorf("faultmodel: no used weight element found at site %s", site.Name())
		}
	}
	p.Bit = s.rng.Intn(site.Codec().Bits())
	p.Override = &nn.Override{Kind: nn.OperandWeight, Flat: flat}
	// Model the random injection cycle within the hold window: choose an
	// aligned RF window along the users sequence, then keep a random suffix
	// (Sec. III-B1: neurons with timestamp >= p).
	start := (s.rng.Intn(len(users)) / s.rf) * s.rf
	end := start + s.rf
	if end > len(users) {
		end = len(users)
	}
	window := users[start:end]
	suffix := s.rng.Intn(len(window)) // p in [0, window)
	p.Neurons = window[suffix:]
	return p, nil
}

// Apply executes a plan against a live layer execution, patching op.Out in
// place. It returns the list of (flat index, golden, faulty) changes for
// outcome analysis.
func Apply(p *Plan, site nn.Site, op *nn.Operands) []Change {
	if p.GlobalFailure {
		return nil
	}
	codec := site.Codec()
	out := op.Out.Data()
	switch p.Model {
	case LocalControl:
		off := op.Out.Offset(p.Neurons[0]...)
		old := out[off]
		out[off] = p.RandomValue
		return []Change{{Flat: off, Golden: old, Faulty: p.RandomValue}}

	case OutputPSum:
		off := op.Out.Offset(p.Neurons[0]...)
		old := out[off]
		faulty := codec.FlipBit(old, p.Bit)
		for _, b := range p.ExtraBits {
			faulty = codec.FlipBit(faulty, b)
		}
		out[off] = faulty
		return []Change{{Flat: off, Golden: old, Faulty: faulty}}
	}
	// Datapath recompute models: flip the stored operand bit and recompute
	// every affected neuron with the override.
	ov := *p.Override
	var stored float32
	switch ov.Kind {
	case nn.OperandInput:
		stored = op.In.Data()[ov.Flat]
	case nn.OperandWeight:
		stored = op.W.Data()[ov.Flat]
	case nn.OperandBias:
		stored = op.B.Data()[ov.Flat]
	}
	ov.Value = codec.FlipBit(stored, p.Bit)
	for _, b := range p.ExtraBits {
		ov.Value = codec.FlipBit(ov.Value, b)
	}
	return patchNeurons(site, op, p.Neurons, &ov)
}

// patchNeurons recomputes neurons with ov (nil: from op as it stands) and
// stores every value that moved in op.Out, returning the moves in the order
// of neurons.
func patchNeurons(site nn.Site, op *nn.Operands, neurons [][]int, ov *nn.Override) []Change {
	faulty := make([]float32, len(neurons))
	site.ComputeNeurons(op, neurons, ov, faulty)
	out := op.Out.Data()
	var changes []Change
	for i, idx := range neurons {
		off := op.Out.Offset(idx...)
		if old := out[off]; faulty[i] != old {
			out[off] = faulty[i]
			changes = append(changes, Change{Flat: off, Golden: old, Faulty: faulty[i]})
		}
	}
	return changes
}

// Change records one patched output neuron.
type Change struct {
	// Flat is the row-major index into the layer output.
	Flat int
	// Golden and Faulty are the neuron values before and after injection.
	Golden, Faulty float32
}
