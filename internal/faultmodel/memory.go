package faultmodel

import (
	"fmt"
	"slices"

	"fidelity/internal/nn"
	"fidelity/internal/tensor"
)

// This file implements the paper's Sec. III-E extension: FIdelity applied to
// memory errors. Per Datapath RF Property (1), an error in one on-chip
// memory word behaves exactly like a fault in the datapath FFs feeding that
// memory (Table I row 1: all neurons using the value are affected), and
// multiple memory errors corrupt the union of the per-word reuse sets.

// MemoryError is one corrupted word of the on-chip buffer: one or more bit
// flips in the stored encoding of a single value.
type MemoryError struct {
	// Kind selects the buffer: OperandInput or OperandWeight.
	Kind nn.OperandKind
	// Word is the flat element index within the buffer.
	Word int
	// Bits lists the flipped bit positions within the word (SEU: one;
	// multi-bit upsets: several).
	Bits []int
}

// MemoryPlan is the derived software fault model for a set of memory errors.
type MemoryPlan struct {
	Errors []MemoryError
	// Neurons is the union of the per-word reuse sets: output offsets,
	// ascending and deduplicated.
	Neurons []int
}

// PlanMemoryErrors derives the faulty neuron set for a set of memory errors
// against one layer execution.
func PlanMemoryErrors(site nn.Site, op *nn.Operands, errs []MemoryError) (*MemoryPlan, error) {
	if len(errs) == 0 {
		return nil, fmt.Errorf("faultmodel: no memory errors given")
	}
	var neurons []int
	for _, e := range errs {
		var buf *tensor.Tensor
		switch e.Kind {
		case nn.OperandInput:
			buf = op.In
		case nn.OperandWeight:
			buf = op.W
		default:
			return nil, fmt.Errorf("faultmodel: memory errors must target input or weight buffers, got %v", e.Kind)
		}
		if buf == nil {
			return nil, fmt.Errorf("faultmodel: site %s has no %v buffer", site.Name(), e.Kind)
		}
		if e.Word < 0 || e.Word >= buf.Size() {
			return nil, fmt.Errorf("faultmodel: word %d outside %v buffer of %d", e.Word, e.Kind, buf.Size())
		}
		if len(e.Bits) == 0 {
			return nil, fmt.Errorf("faultmodel: memory error at word %d flips no bits", e.Word)
		}
		neurons = site.NeuronsUsingOperand(op, e.Kind, e.Word, neurons)
	}
	// Deterministic order for reproducibility.
	slices.Sort(neurons)
	return &MemoryPlan{Errors: errs, Neurons: slices.Compact(neurons)}, nil
}

// ApplyMemory executes a memory plan: flip the stored words, recompute every
// neuron in the union reuse set, and patch op.Out in place.
func ApplyMemory(p *MemoryPlan, site nn.Site, op *nn.Operands) []Change {
	codec := site.Codec()
	// Clone the corrupted buffers so multiple word errors act jointly.
	work := *op
	var inClone, wClone *tensor.Tensor
	for _, e := range p.Errors {
		switch e.Kind {
		case nn.OperandInput:
			if inClone == nil {
				inClone = op.In.Clone()
				work.In = inClone
			}
			v := inClone.Data()[e.Word]
			for _, b := range e.Bits {
				v = codec.FlipBit(v, b)
			}
			inClone.Data()[e.Word] = v
		case nn.OperandWeight:
			if wClone == nil {
				wClone = op.W.Clone()
				work.W = wClone
			}
			v := wClone.Data()[e.Word]
			for _, b := range e.Bits {
				v = codec.FlipBit(v, b)
			}
			wClone.Data()[e.Word] = v
		}
	}
	return new(Plan).patch(site, &work, p.Neurons, nil)
}
