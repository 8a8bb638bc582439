// Package reuse implements Reuse Factor Analysis (paper Sec. III-B,
// Algorithm 1), the core of the FIdelity framework: given a target flip-flop
// described by a minimal amount of high-level microarchitectural information,
// it derives the maximum number of output neurons a single-cycle bit-flip in
// that FF can corrupt (the reuse factor, RF), the relative locations of all
// possible faulty neurons, and the order in which they are computed.
package reuse

import (
	"fmt"

	"fidelity/internal/accel"
)

// Neuron is a relative output-neuron index in (batch, height, width, channel)
// coordinates, expressed relative to the reference neuron — the first neuron
// computed by the first compute unit at loop 0 (Algorithm 1, input 5).
type Neuron struct {
	Batch, H, W, C int
}

// String renders the neuron coordinate.
func (n Neuron) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", n.Batch, n.H, n.W, n.C)
}

// FaultyNeuron is a relative faulty-neuron record with the loop timestamp l
// at which it is generated (Algorithm 1, line 6).
type FaultyNeuron struct {
	Neuron Neuron
	// Loop is the timestamp l: the number of cycles after the target FF last
	// updated its output value when this neuron consumed the faulty value.
	Loop int
}

// UnitID identifies a compute unit (a multiplier for input/weight FFs, an
// accumulator/adder for partial-sum/bias FFs).
type UnitID int

// Input is the complete input set of Algorithm 1. All five inputs come from
// high-level design information: the block diagram gives the FF-to-compute-
// unit connectivity, and the scheduling/reuse algorithm gives the neuron
// mappings.
type Input struct {
	// Var and Stage identify the target FF's category (input 1).
	Var   accel.VarType
	Stage accel.Position

	// FFValueCycles is the maximum number of cycles the target FF holds the
	// same output value (input 2).
	FFValueCycles int

	// Units returns M_l: the compute units that use the target FF's value at
	// the l-th loop after the FF last updated (input 3).
	Units func(l int) []UnitID

	// InEffectCycles returns the number of cycles a single-cycle value in
	// the target FF is in effect at unit m during loop l (input 4).
	InEffectCycles func(m UnitID, l int) int

	// Neurons returns the relative output-neuron indices computed in the
	// y-th cycle by unit m since m started using the target FF's value at
	// loop l (input 5).
	Neurons func(m UnitID, y, l int) []Neuron
}

// Validate checks that the input set is complete and sane.
func (in *Input) Validate() error {
	if in.FFValueCycles <= 0 {
		return fmt.Errorf("reuse: FF_value_cycles must be positive, got %d", in.FFValueCycles)
	}
	if in.Units == nil || in.InEffectCycles == nil || in.Neurons == nil {
		return fmt.Errorf("reuse: Units, InEffectCycles and Neurons functions are all required")
	}
	return nil
}

// Result is the output of Algorithm 1.
type Result struct {
	// RF is the reuse factor: the maximum number of distinct faulty output
	// neurons a single-cycle bit-flip in the target FF can generate.
	RF int
	// Faulty lists the distinct faulty neurons with their loop timestamps,
	// in the order they are generated.
	Faulty []FaultyNeuron
}

// Analyze executes Algorithm 1.
func Analyze(in Input) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	var faulty []FaultyNeuron
	seen := make(map[Neuron]bool)
	for l := 0; l < in.FFValueCycles; l++ { // line 2
		for _, m := range in.Units(l) { // line 3
			ec := in.InEffectCycles(m, l)
			if ec < 0 {
				return Result{}, fmt.Errorf("reuse: negative in_effect_cycles(%d) at loop %d", m, l)
			}
			for cycle := 0; cycle < ec; cycle++ { // line 4
				for _, n := range in.Neurons(m, cycle, l) { // line 5
					if !seen[n] { // insert with dedup (line 6)
						seen[n] = true
						faulty = append(faulty, FaultyNeuron{Neuron: n, Loop: l})
					}
				}
			}
		}
	}
	return Result{RF: len(faulty), Faulty: faulty}, nil // lines 11-12
}
