package faultmodel

import (
	"fmt"
	"math/rand"
	"slices"

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
	src    rand.Source64
	rng    *rand.Rand
}

// NewSampler builds a sampler over a derived model set, which must hold both
// CBUF→MAC models with a positive RF: each is walked at its own.
func NewSampler(models []Model, seed int64) (*Sampler, error) {
	byID := make(map[ID]Model, len(models))
	for _, m := range models {
		byID[m.ID] = m
	}
	for _, id := range []ID{CBUFMACInput, CBUFMACWeight} {
		if m, ok := byID[id]; !ok || m.RF <= 0 {
			return nil, fmt.Errorf("faultmodel: model set lacks a %v model with positive RF", id)
		}
	}
	src := NewStreamSource(seed)
	return &Sampler{models: byID, src: src, rng: rand.New(src)}, nil
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
// sampling; values are read at apply time). The draws are walk's, from the
// sampler's stream.
func (s *Sampler) PlanInto(p *Plan, id ID, site nn.Site, visit int, op *nn.Operands) error {
	return s.plan(s, p, id, site, visit, op)
}

// Located is where a fault that a cycle-level reference injected landed, in
// the terms of a layer execution's operands.
type Located struct {
	// Flat is the struck operand element (row-major), or -1 for a padding
	// zero of the input, which no tensor stores.
	Flat int
	// Neuron is the first output neuron the fault reaches (row-major).
	Neuron int
	// Bit is the flipped bit.
	Bit int
}

// PlanAt builds into p, as PlanInto does, the plan of model id whose draws
// are fixed by at: its element and bit, and for a CBUF→MAC model the window
// (or a weight's suffix) that starts at Neuron's place among the element's
// users — a padding zero's users are Neuron alone. A local-control word is
// left 0. It fails when the model cannot reach the location.
func (s *Sampler) PlanAt(p *Plan, id ID, site nn.Site, op *nn.Operands, at Located) error {
	l := &located{Located: at, p: p}
	if err := s.plan(l, p, id, site, 0, op); err != nil {
		return err
	}
	return l.err
}

// plan resets p and walks model id at its own RF with c's draws.
func (s *Sampler) plan(c chooser, p *Plan, id ID, site nn.Site, visit int, op *nn.Operands) error {
	m, ok := s.models[id]
	if !ok {
		return fmt.Errorf("faultmodel: unknown model %v", id)
	}
	*p = Plan{Model: id, SiteName: site.Name(), Visit: visit,
		users: p.users[:0], faulty: p.faulty, changes: p.changes}
	return walk(c, p, id, site, op, m.RF)
}

// A chooser makes the draws a fault model's walk is written in. The sampler
// draws each from its stream, PlanAt's chooser reads each off a located
// fault, and a test-side enumerator takes every branch, so the walk is the
// one definition of what a campaign samples and Validate checks (DESIGN.md
// §5.3 renders it). what names a draw in that table.
type chooser interface {
	// index is uniform in [0, n).
	index(what string, n int) int
	// used is an element of the kind operand, of size elements, that some
	// output reads, uniform among those; its reuse set goes to users' buffer.
	used(site nn.Site, op *nn.Operands, kind nn.OperandKind, size int, users []int) (flat int, _ []int, err error)
	// word is a datapath word of the given width, uniform.
	word(bits int) uint32
}

func (s *Sampler) index(_ string, n int) int { return s.rng.Intn(n) }

func (s *Sampler) word(bits int) uint32 {
	return uint32(s.rng.Int63()) & (uint32(1)<<uint(bits) - 1)
}

// used draws elements until some output reads one (only values that stream
// through the register can be struck there; strided kernels leave entries
// unread), and gives up after 64 misses.
func (s *Sampler) used(site nn.Site, op *nn.Operands, kind nn.OperandKind, size int, users []int) (int, []int, error) {
	for try := 0; ; try++ {
		flat := s.rng.Intn(size)
		if users = site.NeuronsUsingOperand(op, kind, flat, users[:0]); len(users) > 0 {
			return flat, users, nil
		}
		if try >= 64 {
			return 0, users, fmt.Errorf("faultmodel: no used %v element found at site %s", kind, site.Name())
		}
	}
}

// located is PlanAt's chooser: every draw is the location's, by the draw's
// name in walk, and err keeps the first one that falls outside its range.
type located struct {
	Located
	p   *Plan // the plan walked: its users, then its window, at each draw
	err error
}

func (l *located) index(what string, n int) int {
	i := -1
	switch what {
	case "output neuron, uniform":
		i = l.Neuron
	case "operand element, uniform":
		i = l.Flat
	case "bit in codec width, uniform":
		i = l.Bit
	case "user, uniform (its aligned RF-channel block)", "RF window ∝ its users":
		i = slices.Index(l.p.users, l.Neuron)
	case "suffix of the window, uniform":
		i = slices.Index(l.p.Neurons, l.Neuron)
	}
	if i < 0 || i >= n {
		if l.err == nil {
			l.err = fmt.Errorf("faultmodel: no %q draw in [0, %d) reaches %+v", what, n, l.Located)
		}
		return 0
	}
	return i
}

func (l *located) used(site nn.Site, op *nn.Operands, kind nn.OperandKind, size int, users []int) (int, []int, error) {
	switch {
	case l.Flat < 0 && kind == nn.OperandInput && l.Neuron >= 0 && l.Neuron < op.Out.Size():
		return l.Flat, append(users[:0], l.Neuron), nil // a padding zero
	case l.Flat >= 0 && l.Flat < size:
		if users = site.NeuronsUsingOperand(op, kind, l.Flat, users[:0]); len(users) > 0 {
			return l.Flat, users, nil
		}
	}
	return 0, users, fmt.Errorf("faultmodel: no output of site %s reads %v element %d", site.Name(), kind, l.Flat)
}

func (l *located) word(int) uint32 { return 0 }

// walk is model id's Table II row at one layer execution, written into p as
// the draws of c in stream order; rf is the model's reuse factor.
func walk(c chooser, p *Plan, id ID, site nn.Site, op *nn.Operands, rf int) error {
	codec := site.Codec()
	switch id {
	case GlobalControl:
		p.GlobalFailure = true
		return nil
	case LocalControl, OutputPSum:
		// RF = 1: one output neuron, which a local-control fault gives a
		// uniformly random word of the datapath width (its effect is
		// non-deterministic, Sec. III-C) and a psum fault one flipped bit.
		p.users = append(p.users, c.index("output neuron, uniform", op.Out.Size()))
		p.Neurons = p.users
		if id == LocalControl {
			p.RandomValue = codec.Decode(c.word(codec.Bits()))
		} else {
			p.Bit = c.index("bit in codec width, uniform", codec.Bits())
		}
		return nil
	}
	kind, target := nn.OperandInput, op.In
	if id == BeforeCBUFWeight || id == CBUFMACWeight {
		kind, target = nn.OperandWeight, op.W
	}
	if target == nil {
		return fmt.Errorf("faultmodel: site %s has no %v operand", site.Name(), kind)
	}
	if id == BeforeCBUFInput || id == BeforeCBUFWeight {
		// All neurons that use the value (Table I row 1: values in the
		// on-chip buffer are reused for every MAC operation involving
		// them). A buffer entry that no output consumes (e.g. an input
		// pixel skipped by a strided kernel) yields an empty set: the
		// fault is architecturally masked.
		p.override(kind, c.index("operand element, uniform", target.Size()))
		p.Bit = c.index("bit in codec width, uniform", codec.Bits())
		p.users = site.NeuronsUsingOperand(op, kind, p.ov.Flat, p.users)
		p.Neurons = p.users
		return nil
	}
	// CBUF→MAC: only a value that streams through the register can be struck
	// there, and it reaches at most RF of its users.
	flat, users, err := c.used(site, op, kind, target.Size(), p.users)
	if p.users = users; err != nil {
		return err
	}
	p.override(kind, flat)
	p.Bit = c.index("bit in codec width, uniform", codec.Bits())
	if id == CBUFMACInput && site.Kind() == nn.KindConv {
		// The input reaches RF neurons at one 2-D position spanning RF
		// consecutive channels (Fig 2a target a4): the aligned channel
		// block of a user, which takes the users' place in their buffer.
		u := p.users[c.index("user, uniform (its aligned RF-channel block)", len(p.users))]
		cdim := op.Out.Dim(op.Out.Rank() - 1)
		pixel, c0 := u-u%cdim, u%cdim/rf*rf
		p.Neurons = p.users[:0]
		for ch := c0; ch < c0+rf && ch < cdim; ch++ {
			p.Neurons = append(p.Neurons, pixel+ch)
		}
		return nil
	}
	// FC and MatMul inputs, and every weight: RF consecutive users (the users
	// are ordered along the output row or column), in the aligned window of a
	// uniform user.
	start := c.index("RF window ∝ its users", len(p.users)) / rf * rf
	p.Neurons = p.users[start:min(start+rf, len(p.users))]
	if id == CBUFMACWeight {
		// The weight register holds its value for up to RF cycles, so a
		// random injection cycle corrupts a suffix of the window: "all or a
		// subset of" its neurons (Fig 2a target a2; Sec. III-B1: neurons with
		// timestamp >= p).
		p.Neurons = p.Neurons[c.index("suffix of the window, uniform", len(p.Neurons)):]
	}
	return nil
}

// override points p.Override at the plan's own override of operand element
// (kind, flat).
func (p *Plan) override(kind nn.OperandKind, flat int) {
	p.ov = nn.Override{Kind: kind, Flat: flat}
	p.Override = &p.ov
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
