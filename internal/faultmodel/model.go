// Package faultmodel derives and applies the software fault models of the
// paper's Table II: for each flip-flop category of an accelerator, the model
// that reproduces — purely in software — the set of faulty output neurons
// and their faulty values caused by a single-cycle FF bit-flip.
//
// The models are derived from Reuse Factor Analysis (package reuse) plus the
// accelerator's scheduling/reuse algorithm, and are applied to live layer
// executions of the nn substrate via per-neuron recomputation with operand
// overrides.
package faultmodel

import (
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/reuse"
)

// ID enumerates the software fault models (one per Table II row).
type ID int

const (
	// BeforeCBUFInput: one random bit-flip at one randomly chosen input,
	// affecting all neurons that use the input value.
	BeforeCBUFInput ID = iota
	// BeforeCBUFWeight: one random bit-flip at one randomly chosen weight,
	// affecting all neurons that use the weight value.
	BeforeCBUFWeight
	// CBUFMACInput: one random bit-flip at one randomly chosen input,
	// affecting the corresponding RF (=16 for NVDLA) faulty neurons.
	CBUFMACInput
	// CBUFMACWeight: one random bit-flip at one randomly chosen weight,
	// affecting the corresponding <= RF (=16) neurons.
	CBUFMACWeight
	// OutputPSum: one random bit-flip at one randomly chosen output neuron
	// or partial sum (RF = 1).
	OutputPSum
	// LocalControl: a random faulty value at one randomly chosen output
	// neuron (RF = 1; the effect of a control flip is non-deterministic).
	LocalControl
	// GlobalControl: system failure (a fault in an active global control FF
	// always results in application error or system anomaly).
	GlobalControl
)

// names holds each model's short name, indexed by ID.
var names = [...]string{
	BeforeCBUFInput:  "beforeCBUF/input",
	BeforeCBUFWeight: "beforeCBUF/weight",
	CBUFMACInput:     "cbuf2mac/input",
	CBUFMACWeight:    "cbuf2mac/weight",
	OutputPSum:       "output/psum",
	LocalControl:     "local-control",
	GlobalControl:    "global-control",
}

// String returns a short model name.
func (id ID) String() string {
	if id >= 0 && int(id) < len(names) {
		return names[id]
	}
	return fmt.Sprintf("ID(%d)", int(id))
}

// MarshalText encodes the ID as its short name, so maps keyed by ID
// serialize to readable JSON in campaign checkpoints and manifests.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText parses a short model name produced by MarshalText. A known
// name allocates nothing: every tally key a checkpoint decodes comes here.
func (id *ID) UnmarshalText(b []byte) error {
	parsed, ok := lookupID(string(b))
	if !ok {
		_, err := ParseID(string(b))
		return err
	}
	*id = parsed
	return nil
}

// ParseID resolves a short model name (the String form) back to its ID.
func ParseID(s string) (ID, error) {
	if id, ok := lookupID(s); ok {
		return id, nil
	}
	return 0, fmt.Errorf("faultmodel: unknown model name %q", s)
}

// lookupID is ParseID without the error.
func lookupID(s string) (ID, bool) {
	for id, name := range names {
		if name == s {
			return ID(id), true
		}
	}
	return 0, false
}

// AllIDs lists every model in Table II row order.
func AllIDs() []ID {
	return []ID{
		BeforeCBUFInput, BeforeCBUFWeight, CBUFMACInput, CBUFMACWeight,
		OutputPSum, LocalControl, GlobalControl,
	}
}

// Model is one derived software fault model: a Table II row.
type Model struct {
	ID ID
	// Cat is the FF category the model covers.
	Cat accel.Category
	// FFFrac is the fraction of the design's FFs covered (Table II "%FF").
	FFFrac float64
	// RF is the reuse factor; RFAllUsers marks layer-dependent "all neurons
	// using the value" reuse, and RFAll marks "a large number / all" (global
	// control).
	RF         int
	RFAllUsers bool
	RFAll      bool
	// Analysis is the Algorithm 1 result the RF was derived from, when the
	// category is analyzed via Algorithm 1 (CBUF→MAC and output categories).
	Analysis reuse.Result
}

// Derive produces the accelerator's software fault models from its config —
// the Table II generation step. The datapath rows come from Reuse Factor
// Analysis; the control rows follow Sec. III-B3.
func Derive(cfg *accel.Config) ([]Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	crs, err := reuse.AnalyzeNVDLACategories(cfg)
	if err != nil {
		return nil, err
	}
	byCat := make(map[accel.Category]reuse.CategoryResult, len(crs))
	for _, cr := range crs {
		byCat[cr.Cat] = cr
	}

	var models []Model
	for _, g := range cfg.Census {
		m := Model{Cat: g.Cat, FFFrac: g.Frac}
		switch g.Cat.Class {
		case accel.LocalControl:
			m.ID = LocalControl
			m.RF = 1
		case accel.GlobalControl:
			m.ID = GlobalControl
			m.RFAll = true
		default:
			cr, ok := byCat[g.Cat]
			if !ok {
				return nil, fmt.Errorf("faultmodel: no reuse analysis for category %v", g.Cat)
			}
			switch {
			case cr.AllUsers:
				m.RFAllUsers = true
				if g.Cat.Var == accel.VarInput {
					m.ID = BeforeCBUFInput
				} else {
					m.ID = BeforeCBUFWeight
				}
			case g.Cat.Pos == accel.CBUFToMAC && g.Cat.Var == accel.VarInput:
				m.ID = CBUFMACInput
				m.RF = cr.Result.RF
				m.Analysis = cr.Result
			case g.Cat.Pos == accel.CBUFToMAC && g.Cat.Var == accel.VarWeight:
				m.ID = CBUFMACWeight
				m.RF = cr.Result.RF
				m.Analysis = cr.Result
			default:
				m.ID = OutputPSum
				m.RF = cr.Result.RF
				m.Analysis = cr.Result
			}
		}
		models = append(models, m)
	}
	return models, nil
}

// ByID returns the model with the given ID from a derived set.
func ByID(models []Model, id ID) (Model, error) {
	for _, m := range models {
		if m.ID == id {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("faultmodel: no model %v in derived set", id)
}
