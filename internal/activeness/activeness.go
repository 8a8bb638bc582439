// Package activeness implements step 1 of the FIdelity flow (Fig 3): FF
// activeness analysis. A fault injected into an inactive FF is always
// masked, so the probability that an FF of category cat is inactive during
// layer r — Prob_inactive(cat, r), Eq. 1 — scales the category's FIT
// contribution.
//
// Three mutually exclusive inactive classes are modeled (Sec. III-D):
//
//	Class 1 — component not used: e.g. the weight-decompression unit is idle
//	          whenever the workload's weights are uncompressed.
//	Class 2 — signal not used: e.g. FP-only FFs are idle for INT workloads.
//	Class 3 — temporally not used: a component is idle for part of the layer
//	          (e.g. MACs stalled on fetch), estimated by a performance model
//	          equivalent to NVDLA's open-source perf tool.
package activeness

import (
	"fidelity/internal/accel"
	"fidelity/internal/numerics"
)

// Breakdown is the per-component time breakdown of one layer execution,
// produced by the performance model from scheduling/configuration
// information only (no RTL needed).
type Breakdown struct {
	// FetchCycles is the DMA time to fill the on-chip buffer.
	FetchCycles int64
	// MACCycles is the MAC-array busy time.
	MACCycles int64
	// PostCycles is the post-processing/write-back time.
	PostCycles int64
	// TotalCycles is the layer makespan given overlap between fetch and
	// compute phases.
	TotalCycles int64
}

// Model estimates execution-time breakdowns for layers on a design. It is
// the analog of the NVDLA performance tool the paper cites: it uses only the
// hardware configuration parameters and the scheduling algorithm.
type Model struct {
	cfg *accel.Config
}

// NewModel builds a performance model for cfg.
func NewModel(cfg *accel.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// Estimate computes the cycle breakdown of layer l.
func (m *Model) Estimate(l accel.LayerSpec) (Breakdown, error) {
	if err := l.Validate(); err != nil {
		return Breakdown{}, err
	}
	var b Breakdown
	bytes := l.InputBytes() + l.WeightBytes()
	b.FetchCycles = (bytes + int64(m.cfg.FetchBytesPerCycle) - 1) / int64(m.cfg.FetchBytesPerCycle)

	// The MAC array retires AtomicK MACs per cycle (one operand broadcast to
	// AtomicK units), plus one weight-load cycle per reduction step per
	// position block.
	macs := l.MACs()
	b.MACCycles = (macs + int64(m.cfg.AtomicK) - 1) / int64(m.cfg.AtomicK)
	red := int64(l.KH) * int64(l.KW) * int64(l.InC)
	blocks := (l.OutNeurons()/int64(l.OutC) + int64(m.cfg.WeightHoldCycles) - 1) / int64(m.cfg.WeightHoldCycles)
	groups := (int64(l.OutC) + int64(m.cfg.AtomicK) - 1) / int64(m.cfg.AtomicK)
	b.MACCycles += blocks * groups * red // weight-load cycles

	b.PostCycles = l.OutNeurons()

	// Fetch overlaps with compute after the first buffer fill: the makespan
	// is bounded below by each phase and above by their sum; we model
	// double-buffered overlap with a pipeline-fill penalty of one fetch.
	compute := b.MACCycles + b.PostCycles
	if b.FetchCycles > compute {
		b.TotalCycles = b.FetchCycles + compute/4
	} else {
		b.TotalCycles = compute + b.FetchCycles/4
	}
	if b.TotalCycles < 1 {
		b.TotalCycles = 1
	}
	return b, nil
}

// componentIdleFrac returns the Class 3 idle fraction of a component during
// the layer.
func componentIdleFrac(b Breakdown, comp accel.Component) float64 {
	var busy int64
	switch comp {
	case accel.CompFetch:
		busy = b.FetchCycles
	case accel.CompSequencer, accel.CompMAC:
		busy = b.MACCycles
	case accel.CompPost:
		busy = b.PostCycles
	case accel.CompConfig:
		// Configuration registers hold live state for the entire layer.
		busy = b.TotalCycles
	}
	if busy >= b.TotalCycles {
		return 0
	}
	return 1 - float64(busy)/float64(b.TotalCycles)
}

// Analysis holds Prob_inactive for every census category of a design for one
// layer.
type Analysis struct {
	// Layer is the analyzed layer.
	Layer accel.LayerSpec
	// Breakdown is the performance-model estimate used for Class 3.
	Breakdown Breakdown
	// ProbInactive maps each census category to Eq. 1's result.
	ProbInactive map[accel.Category]float64
}

// Analyze computes Prob_inactive(cat, r) for all census groups (Eq. 1):
//
//	Prob_inactive(cat, r) = Σ_cl FF_Perc(cat, cl) × Perc_inactive(cat, cl, r)
//
// where the class fractions come from the census sub-fractions and the
// workload's properties, and the Class 3 percentage comes from the
// performance model.
func Analyze(cfg *accel.Config, m *Model, l accel.LayerSpec) (*Analysis, error) {
	b, err := m.Estimate(l)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Layer: l, Breakdown: b, ProbInactive: map[accel.Category]float64{}}
	for _, g := range cfg.Census {
		var prob float64

		// Class 1: decompression FFs idle when weights are uncompressed.
		class1 := 0.0
		if !l.WeightsCompressed {
			class1 = g.DecompressFrac
		}
		prob += class1

		// Class 2: precision-specific FFs idle for the other precision.
		class2 := 0.0
		switch l.Precision {
		case numerics.INT16, numerics.INT8:
			class2 = g.FPOnlyFrac
		case numerics.FP16, numerics.FP32:
			class2 = g.IntOnlyFrac
		}
		prob += class2

		// Class 3: remaining FFs are idle for the component's idle fraction.
		rest := 1 - class1 - class2
		if rest < 0 {
			rest = 0
		}
		prob += rest * componentIdleFrac(b, g.Component)

		if prob > 1 {
			prob = 1
		}
		a.ProbInactive[g.Cat] = prob
	}
	return a, nil
}
