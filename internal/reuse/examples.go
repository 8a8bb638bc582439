package reuse

import (
	"fmt"

	"fidelity/internal/accel"
)

// This file encodes the worked examples of paper Fig. 2 as Algorithm 1
// inputs. They serve three purposes: documentation of how the five inputs
// are read off a block diagram, regression tests reproducing the figure's RF
// values, and the per-category analysis used to derive the NVDLA software
// fault models of Table II.

// NVDLATargetA1 is Fig 2(a) target a1: a weight FF whose output feeds one
// multiplier (m00) through a downstream register that holds each value for t
// cycles. A single-cycle flip in a1 therefore stays in effect at m00 for t
// cycles, corrupting t consecutive neurons of one output channel (the MACs
// scan the output feature map in row-major order).
func NVDLATargetA1(t int) Input {
	return Input{
		Var:           accel.VarWeight,
		Stage:         accel.CBUFToMAC,
		FFValueCycles: 1,
		Units:         func(l int) []UnitID { return []UnitID{0} },
		InEffectCycles: func(m UnitID, l int) int {
			return t
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			// Row-major scan: consecutive cycles produce consecutive W
			// positions within the same output channel.
			return []Neuron{{Batch: 0, H: 0, W: y, C: 0}}
		},
	}
}

// NVDLATargetA2 is Fig 2(a) target a2: the weight register that holds each
// value for t cycles, feeding multiplier m00 one operation per cycle. Its
// full faulty-neuron set equals a1's, but because FF_value_cycles = t, a
// random injection cycle p corrupts between 1 and t neurons (those with
// timestamp >= p; faultmodel's weight plan draws p).
func NVDLATargetA2(t int) Input {
	return Input{
		Var:           accel.VarWeight,
		Stage:         accel.CBUFToMAC,
		FFValueCycles: t,
		Units:         func(l int) []UnitID { return []UnitID{0} },
		InEffectCycles: func(m UnitID, l int) int {
			return 1
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{Batch: 0, H: 0, W: l, C: 0}}
		},
	}
}

// NVDLATargetA3 is Fig 2(a) target a3: a per-cycle weight register directly
// at the multiplier input. The faulty value lasts one cycle and feeds one
// operation: RF = 1.
func NVDLATargetA3() Input {
	return Input{
		Var:           accel.VarWeight,
		Stage:         accel.InsideMAC,
		FFValueCycles: 1,
		Units:         func(l int) []UnitID { return []UnitID{0} },
		InEffectCycles: func(m UnitID, l int) int {
			return 1
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{Batch: 0, H: 0, W: 0, C: 0}}
		},
	}
}

// NVDLATargetA4 is Fig 2(a) target a4: an input FF broadcast to all k²
// multipliers, which compute the output neurons at the same (height, width)
// position in k² consecutive channels in the same cycle: RF = k².
func NVDLATargetA4(kSquared int) Input {
	units := make([]UnitID, kSquared)
	for i := range units {
		units[i] = UnitID(i)
	}
	return Input{
		Var:           accel.VarInput,
		Stage:         accel.CBUFToMAC,
		FFValueCycles: 1,
		Units:         func(l int) []UnitID { return units },
		InEffectCycles: func(m UnitID, l int) int {
			return 1
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{Batch: 0, H: 0, W: 0, C: int(m)}}
		},
	}
}

// EyerissTargetB1 is Fig 2(b) target b1: a weight FF in a k×k systolic array.
// The weight value is passed from one MAC column to the next each cycle, and
// consecutive columns compute consecutive output rows, so a single-cycle
// flip corrupts k neurons occupying k consecutive rows of one output column:
// RF = k.
func EyerissTargetB1(k int) Input {
	units := make([]UnitID, k)
	for i := range units {
		units[i] = UnitID(i)
	}
	return Input{
		Var:           accel.VarWeight,
		Stage:         accel.CBUFToMAC,
		FFValueCycles: 1,
		Units:         func(l int) []UnitID { return units },
		InEffectCycles: func(m UnitID, l int) int {
			return 1
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			// Column m of the array computes output row m; the faulty weight
			// lands in the same output column of each row.
			return []Neuron{{Batch: 0, H: int(m), W: 0, C: 0}}
		},
	}
}

// EyerissTargetB2 is Fig 2(b) target b2: an input FF whose value is reused
// diagonally across k MACs and, inside each MAC, across t consecutive output
// channels (here the input is only needed for the last output column):
// RF = k·t, occupying t consecutive channels × k consecutive rows in the
// last column.
func EyerissTargetB2(k, t int) Input {
	units := make([]UnitID, k)
	for i := range units {
		units[i] = UnitID(i)
	}
	return Input{
		Var:           accel.VarInput,
		Stage:         accel.CBUFToMAC,
		FFValueCycles: 1,
		Units:         func(l int) []UnitID { return units },
		InEffectCycles: func(m UnitID, l int) int {
			return t
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{Batch: 0, H: int(m), W: 0, C: y}}
		},
	}
}

// EyerissTargetB3 is Fig 2(b) target b3: a bias FF connected to a single
// BiasAdd unit with no temporal reuse: RF = 1.
func EyerissTargetB3() Input {
	return Input{
		Var:           accel.VarBias,
		Stage:         accel.AfterMAC,
		FFValueCycles: 1,
		Units:         func(l int) []UnitID { return []UnitID{0} },
		InEffectCycles: func(m UnitID, l int) int {
			return 1
		},
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{Batch: 0, H: 0, W: 0, C: 0}}
		},
	}
}

// CategoryResult pairs a datapath FF category with its Algorithm 1 result.
type CategoryResult struct {
	Cat    accel.Category
	Result Result
	// AllUsers marks categories whose RF is "all neurons that use the
	// value" (before-CBUF positions, Table I row 1) — the concrete neuron
	// set is layer-dependent and derived by the fault model, not by
	// Algorithm 1.
	AllUsers bool
}

// AnalyzeNVDLACategories runs Reuse Factor Analysis for every datapath FF
// category of an NVDLA-like design (Datapath RF Property 3 makes one
// analysis per category sufficient). This is the derivation behind the
// "RF" column of Table II.
func AnalyzeNVDLACategories(cfg *accel.Config) ([]CategoryResult, error) {
	k2 := cfg.AtomicK
	t := cfg.WeightHoldCycles

	type entry struct {
		cat      accel.Category
		in       *Input
		allUsers bool
	}
	a4 := NVDLATargetA4(k2)
	a2 := NVDLATargetA2(t)
	a3out := Input{ // output/psum register: one neuron per FF (Datapath RF Property 2)
		Var:            accel.VarOutput,
		Stage:          accel.InsideMAC,
		FFValueCycles:  1,
		Units:          func(l int) []UnitID { return []UnitID{0} },
		InEffectCycles: func(m UnitID, l int) int { return 1 },
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{}}
		},
	}
	entries := []entry{
		{cat: accel.Category{Class: accel.Datapath, Var: accel.VarInput, Pos: accel.BeforeCBUF}, allUsers: true},
		{cat: accel.Category{Class: accel.Datapath, Var: accel.VarWeight, Pos: accel.BeforeCBUF}, allUsers: true},
		{cat: accel.Category{Class: accel.Datapath, Var: accel.VarInput, Pos: accel.CBUFToMAC}, in: &a4},
		{cat: accel.Category{Class: accel.Datapath, Var: accel.VarWeight, Pos: accel.CBUFToMAC}, in: &a2},
		{cat: accel.Category{Class: accel.Datapath, Var: accel.VarOutput, Pos: accel.InsideMAC}, in: &a3out},
	}
	var out []CategoryResult
	for _, e := range entries {
		cr := CategoryResult{Cat: e.cat, AllUsers: e.allUsers}
		if e.in != nil {
			r, err := Analyze(*e.in)
			if err != nil {
				return nil, fmt.Errorf("reuse: category %v: %w", e.cat, err)
			}
			cr.Result = r
		}
		out = append(out, cr)
	}
	return out, nil
}
