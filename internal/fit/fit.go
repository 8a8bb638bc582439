// Package fit implements step 3 of the FIdelity flow: the
// Accelerator_FIT_rate computation of paper Eq. 2, plus the ISO 26262
// ASIL-D budget check used in Key Result 1.
package fit

import (
	"fmt"

	"fidelity/internal/accel"
)

// RawFFFITPerMB is the raw FF FIT rate the paper uses: 600 FIT per megabyte
// of flip-flops for soft errors (Jagannathan et al., 40 nm). Other rates
// (voltage noise, different nodes) can be substituted; Eq. 2 is linear in it.
const RawFFFITPerMB = 600.0

// RawFITPerFF converts a per-MB rate to a per-flip-flop rate (one FF stores
// one bit; 1 MB = 8·2^20 bits).
func RawFITPerFF(perMB float64) float64 {
	return perMB / (8 * 1024 * 1024)
}

// ASILDChipFIT is the ISO 26262 ASIL-D budget for an entire self-driving
// chipset (< 10 FIT).
const ASILDChipFIT = 10.0

// NVDLAFFAreaShare is the area fraction of the chipset occupied by the
// accelerator's FFs (~2% for NVDLA-class accelerators on an FSD-class chip),
// used to apportion the chip budget to the FFs under study.
const NVDLAFFAreaShare = 0.02

// FFBudget returns the FIT budget allocated to the accelerator's FFs by the
// standard area-proportional apportioning: < 0.2 for NVDLA.
func FFBudget() float64 {
	return ASILDChipFIT * NVDLAFFAreaShare
}

// LayerStats carries, for one layer r of a DNN application, the quantities
// Eq. 2 needs per FF category.
type LayerStats struct {
	// Layer names the layer (diagnostics only).
	Layer string
	// ExecTime is exec_time(r): the layer's execution time in cycles (or any
	// consistent unit; Eq. 2 normalizes by the total).
	ExecTime float64
	// ProbInactive maps category -> Prob_inactive(cat, r) from the
	// activeness analysis.
	ProbInactive map[accel.Category]float64
	// ProbMasked maps category -> Prob_SWmask(cat, r) from the software
	// fault-injection campaign. Global control categories must be 0 by
	// construction (FIdelity models active global-control faults as always
	// failing).
	ProbMasked map[accel.Category]float64
}

// Result is the Eq. 2 output with the paper's Fig 4/5 breakdown by FF class.
type Result struct {
	// Total is the Accelerator_FIT_rate.
	Total float64
	// ByClass splits the total into datapath / local control / global
	// control contributions.
	ByClass map[accel.FFClass]float64
	// ByCategory splits the total per census category.
	ByCategory map[accel.Category]float64
	// ByLayer splits the total per layer name — the ranking signal the
	// selective-duplication planner consumes (Eq. 2 is additive per
	// (layer, category), so per-layer removal is exactly subtractive).
	ByLayer map[string]float64
}

// Compute evaluates Eq. 2:
//
//	FIT = FIT_raw × N_ff × Σ_r [ exec_time(r) × Σ_cat FF_Perc(cat)
//	      × (1 − Prob_inactive(cat,r)) × (1 − Prob_SWmask(cat,r)) ] / Σ_r exec_time(r)
//
// rawPerFF is the per-FF raw FIT rate (see RawFITPerFF).
func Compute(cfg *accel.Config, rawPerFF float64, layers []LayerStats) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("fit: no layers provided")
	}
	if rawPerFF < 0 {
		return nil, fmt.Errorf("fit: negative raw FIT rate %v", rawPerFF)
	}
	var totalTime float64
	for _, r := range layers {
		if r.ExecTime <= 0 {
			return nil, fmt.Errorf("fit: layer %s has non-positive exec time %v", r.Layer, r.ExecTime)
		}
		totalTime += r.ExecTime
	}

	res := &Result{
		ByClass:    map[accel.FFClass]float64{},
		ByCategory: map[accel.Category]float64{},
		ByLayer:    map[string]float64{},
	}
	scale := rawPerFF * float64(cfg.NumFFs)
	for _, r := range layers {
		w := r.ExecTime / totalTime
		for _, g := range cfg.Census {
			pin, ok := r.ProbInactive[g.Cat]
			if !ok {
				return nil, fmt.Errorf("fit: layer %s lacks Prob_inactive for %v", r.Layer, g.Cat)
			}
			pm, ok := r.ProbMasked[g.Cat]
			if !ok {
				return nil, fmt.Errorf("fit: layer %s lacks Prob_SWmask for %v", r.Layer, g.Cat)
			}
			if pin < 0 || pin > 1 || pm < 0 || pm > 1 {
				return nil, fmt.Errorf("fit: layer %s has out-of-range probabilities for %v (inactive=%v, masked=%v)",
					r.Layer, g.Cat, pin, pm)
			}
			contrib := scale * w * g.Frac * (1 - pin) * (1 - pm)
			res.Total += contrib
			res.ByClass[g.Cat.Class] += contrib
			res.ByCategory[g.Cat] += contrib
			res.ByLayer[r.Layer] += contrib
		}
	}
	return res, nil
}

// ComputeProtected re-evaluates Eq. 2 with the raw FIT rate of all global
// control FFs set to zero — the "global control FFs are protected" scenario
// of paper Fig 6 (Key Result 2).
func ComputeProtected(cfg *accel.Config, rawPerFF float64, layers []LayerStats) (*Result, error) {
	masked := make([]LayerStats, len(layers))
	for i, r := range layers {
		m := LayerStats{
			Layer: r.Layer, ExecTime: r.ExecTime,
			ProbInactive: r.ProbInactive,
			ProbMasked:   map[accel.Category]float64{},
		}
		for cat, p := range r.ProbMasked {
			if cat.Class == accel.GlobalControl {
				p = 1 // fully protected: never contributes
			}
			m.ProbMasked[cat] = p
		}
		masked[i] = m
	}
	return Compute(cfg, rawPerFF, masked)
}
