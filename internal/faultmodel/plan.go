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
	// Neurons are the row-major output offsets to patch, ascending.
	Neurons []int
	// RandomValue is the replacement value for LocalControl plans.
	RandomValue float32
	// GlobalFailure marks a GlobalControl plan: the run is classified as a
	// system failure without executing.
	GlobalFailure bool

	// A plan reused by PlanInto allocates nothing once warm: it owns the
	// override Override points at, the buffer Neurons lies in (a reuse set,
	// or the window cut from one), and Apply's recomputed values and changes.
	ov      nn.Override
	users   []int
	faulty  []float32
	changes []Change
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
// execution into a new Plan; see PlanInto.
func (s *Sampler) Plan(id ID, site nn.Site, visit int, op *nn.Operands) (*Plan, error) {
	p := new(Plan)
	if err := s.PlanInto(p, id, site, visit, op); err != nil {
		return nil, err
	}
	return p, nil
}

// PlanInto samples a concrete injection for model id against one recorded
// layer execution into p, overwriting every field and reusing p's buffers:
// the previous plan in p is gone, as are the changes its Apply returned. op
// must be the operand set of that execution (shapes only are used for
// sampling; values are read at apply time).
func (s *Sampler) PlanInto(p *Plan, id ID, site nn.Site, visit int, op *nn.Operands) error {
	if _, ok := s.models[id]; !ok {
		return fmt.Errorf("faultmodel: unknown model %v", id)
	}
	*p = Plan{Model: id, SiteName: site.Name(), Visit: visit,
		users: p.users[:0], faulty: p.faulty, changes: p.changes}
	switch id {
	case GlobalControl:
		p.GlobalFailure = true
		return nil

	case LocalControl:
		// RF = 1: one random output neuron receives a non-deterministic
		// value, modeled as a uniformly random bit pattern of the datapath
		// width (Sec. III-C).
		p.users = append(p.users, s.rng.Intn(op.Out.Size()))
		p.Neurons = p.users
		codec := site.Codec()
		bits := uint32(s.rng.Int63()) & (uint32(1)<<uint(codec.Bits()) - 1)
		p.RandomValue = codec.Decode(bits)
		return nil

	case OutputPSum:
		// RF = 1: a bit-flip in the stored value of one output neuron.
		p.users = append(p.users, s.rng.Intn(op.Out.Size()))
		p.Neurons = p.users
		p.Bit = s.rng.Intn(site.Codec().Bits())
		return nil

	case BeforeCBUFInput, BeforeCBUFWeight:
		kind := nn.OperandInput
		target := op.In
		if id == BeforeCBUFWeight {
			kind = nn.OperandWeight
			target = op.W
		}
		if target == nil {
			return fmt.Errorf("faultmodel: site %s has no %v operand", site.Name(), kind)
		}
		flat := s.rng.Intn(target.Size())
		p.Bit = s.rng.Intn(site.Codec().Bits())
		p.override(kind, flat)
		// All neurons that use the value (Table I row 1: determined by the
		// scheduling/reuse algorithm — values in the on-chip buffer are
		// reused for every MAC operation involving them). A buffer entry
		// that no output consumes (e.g. an input pixel skipped by a strided
		// kernel) yields an empty set: the fault is architecturally masked.
		p.users = site.NeuronsUsingOperand(op, kind, flat, p.users)
		p.Neurons = p.users
		return nil

	case CBUFMACInput:
		return s.planCBUFInput(p, site, op)

	case CBUFMACWeight:
		return s.planCBUFWeight(p, site, op)
	}
	return fmt.Errorf("faultmodel: unhandled model %v", id)
}

// override points p.Override at the plan's own override of operand element
// (kind, flat).
func (p *Plan) override(kind nn.OperandKind, flat int) {
	p.ov = nn.Override{Kind: kind, Flat: flat}
	p.Override = &p.ov
}

// drawUsed draws an element of the kind operand, of size elements, until some
// output reads it (only values that stream through the register can be struck
// there; strided kernels leave entries unread): the override's target, with
// its reuse set in p.users.
func (s *Sampler) drawUsed(p *Plan, site nn.Site, op *nn.Operands, kind nn.OperandKind, size int) error {
	for try := 0; ; try++ {
		flat := s.rng.Intn(size)
		if p.users = site.NeuronsUsingOperand(op, kind, flat, p.users[:0]); len(p.users) > 0 {
			p.override(kind, flat)
			return nil
		}
		if try >= 64 {
			return fmt.Errorf("faultmodel: no used %v element found at site %s", kind, site.Name())
		}
	}
}

// planCBUFInput realizes the Table II CBUF→MAC input row: the faulty input
// value reaches the RF parallel compute units, so RF neurons that share the
// value are corrupted. The RF-neuron window follows the layer kind's
// schedule mapping.
func (s *Sampler) planCBUFInput(p *Plan, site nn.Site, op *nn.Operands) error {
	if op.In == nil {
		return fmt.Errorf("faultmodel: site %s has no input operand", site.Name())
	}
	if err := s.drawUsed(p, site, op, nn.OperandInput, op.In.Size()); err != nil {
		return err
	}
	p.Bit = s.rng.Intn(site.Codec().Bits())
	switch site.Kind() {
	case nn.KindConv:
		// RF neurons at the same 2-D position spanning RF consecutive
		// channels (Fig 2a target a4). Pick one using position, then the
		// aligned channel block containing its channel, which takes the
		// place of the users in their buffer.
		u := p.users[s.rng.Intn(len(p.users))]
		cdim := op.Out.Dim(op.Out.Rank() - 1)
		pixel, c0 := u-u%cdim, u%cdim/s.rf*s.rf
		p.Neurons = p.users[:0]
		for c := c0; c < c0+s.rf && c < cdim; c++ {
			p.Neurons = append(p.Neurons, pixel+c)
		}
	default:
		// FC: RF consecutive output neurons of the using row; MatMul: RF
		// consecutive neurons in the using output row. users are already
		// ordered along that row.
		start := (s.rng.Intn(len(p.users)) / s.rf) * s.rf
		p.Neurons = p.users[start:min(start+s.rf, len(p.users))]
	}
	return nil
}

// planCBUFWeight realizes the Table II CBUF→MAC weight row: the weight
// register holds its value for up to RF cycles, so a random injection cycle
// corrupts a suffix of the RF-neuron window — "all or a subset of" the RF
// consecutive neurons that reuse the weight (Fig 2a target a2).
func (s *Sampler) planCBUFWeight(p *Plan, site nn.Site, op *nn.Operands) error {
	if op.W == nil {
		return fmt.Errorf("faultmodel: site %s has no weight operand", site.Name())
	}
	if err := s.drawUsed(p, site, op, nn.OperandWeight, op.W.Size()); err != nil {
		return err
	}
	p.Bit = s.rng.Intn(site.Codec().Bits())
	// Model the random injection cycle within the hold window: choose an
	// aligned RF window along the users sequence, then keep a random suffix
	// (Sec. III-B1: neurons with timestamp >= p).
	start := (s.rng.Intn(len(p.users)) / s.rf) * s.rf
	window := p.users[start:min(start+s.rf, len(p.users))]
	suffix := s.rng.Intn(len(window)) // p in [0, window)
	p.Neurons = window[suffix:]
	return nil
}

// Apply executes a plan against a live layer execution, patching op.Out in
// place and storing the faulty operand value in p.Override. It returns the
// (flat index, golden, faulty) changes for outcome analysis, in a buffer of the
// plan's that its next Apply or PlanInto overwrites.
func Apply(p *Plan, site nn.Site, op *nn.Operands) []Change {
	if p.GlobalFailure {
		return nil
	}
	codec := site.Codec()
	out := op.Out.Data()
	switch p.Model {
	case LocalControl:
		off := p.Neurons[0]
		p.changes = append(p.changes[:0], Change{Flat: off, Golden: out[off], Faulty: p.RandomValue})
		out[off] = p.RandomValue
		return p.changes

	case OutputPSum:
		off := p.Neurons[0]
		old := out[off]
		faulty := codec.FlipBit(old, p.Bit)
		for _, b := range p.ExtraBits {
			faulty = codec.FlipBit(faulty, b)
		}
		out[off] = faulty
		p.changes = append(p.changes[:0], Change{Flat: off, Golden: old, Faulty: faulty})
		return p.changes
	}
	// Datapath recompute models: flip the stored operand bit and recompute
	// every affected neuron with the override.
	ov := p.Override
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
	return p.patch(site, op, p.Neurons, ov)
}

// patch recomputes neurons with ov (nil: from op as it stands) and stores
// every value that moved in op.Out, returning the moves in the order of
// neurons. The recomputed values and the moves go to the plan's buffers.
func (p *Plan) patch(site nn.Site, op *nn.Operands, neurons []int, ov *nn.Override) []Change {
	if cap(p.faulty) < len(neurons) {
		p.faulty = make([]float32, len(neurons))
	}
	faulty := p.faulty[:len(neurons)]
	site.ComputeNeurons(op, neurons, ov, faulty)
	out := op.Out.Data()
	p.changes = p.changes[:0]
	for i, off := range neurons {
		if old := out[off]; faulty[i] != old {
			out[off] = faulty[i]
			p.changes = append(p.changes, Change{Flat: off, Golden: old, Faulty: faulty[i]})
		}
	}
	return p.changes
}

// Change records one patched output neuron.
type Change struct {
	// Flat is the row-major index into the layer output.
	Flat int
	// Golden and Faulty are the neuron values before and after injection.
	Golden, Faulty float32
}
