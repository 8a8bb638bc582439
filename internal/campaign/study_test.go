package campaign

import (
	"context"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

func runStudy(t *testing.T, net string, prec numerics.Precision, samples int, tol float64) *StudyResult {
	t.Helper()
	w, err := model.Build(net, prec, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Study(context.Background(), accel.NVDLASmall(), w, StudyOptions{
		Samples: samples, Inputs: 2, Tolerance: tol, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStudyBasics(t *testing.T) {
	res := runStudy(t, "resnet", numerics.FP16, 30, 0.1)
	if res.Workload != "resnet-lite" || res.Precision != "FP16" {
		t.Errorf("identity: %s/%s", res.Workload, res.Precision)
	}
	if res.Experiments < 30*len(faultmodel.AllIDs()) {
		t.Errorf("experiments = %d", res.Experiments)
	}
	// Global control is always unmasked by construction.
	if res.Masked[faultmodel.GlobalControl].Mean() != 0 {
		t.Error("global control masking must be 0")
	}
	// All masking probabilities valid.
	for id, p := range res.Masked {
		if m := p.Mean(); m < 0 || m > 1 {
			t.Errorf("%v: masking %v", id, m)
		}
		if p.Trials == 0 {
			t.Errorf("%v: no samples", id)
		}
	}
	if res.FIT == nil || res.FIT.Total <= 0 {
		t.Fatal("FIT missing")
	}
	// Fig 6: protecting global control strictly reduces FIT but leaves a
	// datapath/local residue.
	if res.FITProtected.Total >= res.FIT.Total {
		t.Error("protected FIT must be lower")
	}
	if res.FITProtected.Total <= 0 {
		t.Error("protected FIT must remain positive")
	}
	if res.FITProtected.ByClass[accel.GlobalControl] != 0 {
		t.Error("protected global contribution must be zero")
	}
}

// Key Result 1 shape: the unprotected accelerator's FIT is far above the 0.2
// ASIL-D FF budget.
func TestStudyKeyResult1Shape(t *testing.T) {
	res := runStudy(t, "yolo", numerics.FP16, 25, 0.1)
	if res.FIT.Total < 0.2 {
		t.Errorf("unprotected FIT %v should exceed the 0.2 budget", res.FIT.Total)
	}
	// Global control dominates (paper: largest portion).
	if res.FIT.ByClass[accel.GlobalControl] < res.FIT.ByClass[accel.LocalControl] {
		t.Error("global control should outweigh local control")
	}
}

// Key Result 3 shape: a looser tolerance cannot increase FIT.
func TestStudyKeyResult3Shape(t *testing.T) {
	tight := runStudy(t, "transformer", numerics.FP16, 25, 0.1)
	loose := runStudy(t, "transformer", numerics.FP16, 25, 0.2)
	// Compare the non-global portion (global is tolerance-independent).
	tightDP := tight.FIT.Total - tight.FIT.ByClass[accel.GlobalControl]
	looseDP := loose.FIT.Total - loose.FIT.ByClass[accel.GlobalControl]
	if looseDP > tightDP*1.25 {
		t.Errorf("20%% tolerance FIT %v should not exceed 10%% FIT %v", looseDP, tightDP)
	}
}

// Sensitivity analysis: bounds must bracket the point estimate and respond
// to the deltas without re-running injections.
func TestSensitivityBounds(t *testing.T) {
	cfg := accel.NVDLASmall()
	res := runStudy(t, "resnet", numerics.FP16, 20, 0.1)
	lo, hi, err := SensitivityBounds(context.Background(), cfg, res, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= res.FIT.Total && res.FIT.Total <= hi) {
		t.Errorf("bounds [%v, %v] do not bracket %v", lo, hi, res.FIT.Total)
	}
	lo2, hi2, err := SensitivityBounds(context.Background(), cfg, res, 0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if hi2-lo2 >= hi-lo {
		t.Errorf("smaller deltas should tighten bounds: [%v,%v] vs [%v,%v]", lo2, hi2, lo, hi)
	}
	if _, _, err := SensitivityBounds(context.Background(), cfg, res, -1, 0); err == nil {
		t.Error("negative delta should fail")
	}
	if _, _, err := SensitivityBounds(context.Background(), cfg, &StudyResult{}, 0.1, 0.1); err == nil {
		t.Error("result without layers should fail")
	}
}

func TestStudyQuantizedPath(t *testing.T) {
	res := runStudy(t, "mobilenet", numerics.INT8, 20, 0.1)
	if res.FIT.Total <= 0 {
		t.Error("INT8 study failed to produce FIT")
	}
}

// Per-layer mode estimates Prob_SWmask(cat, r) for every layer execution
// (the exact Eq. 2 form) and still yields a valid FIT.
func TestStudyPerLayer(t *testing.T) {
	w, err := model.Build("rnn", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Study(context.Background(), accel.NVDLASmall(), w, StudyOptions{
		Samples: 6, Inputs: 1, Tolerance: 0.1, Seed: 3, PerLayer: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FIT.Total <= 0 {
		t.Error("per-layer FIT missing")
	}
	// rnn has 49 gate executions + fc: experiments must scale with layers.
	if res.Experiments < 6*len(res.Layers) {
		t.Errorf("experiments = %d for %d layers", res.Experiments, len(res.Layers))
	}
	// Per-layer masking must actually differ across at least two layers.
	cat := accel.Category{Class: accel.Datapath, Var: accel.VarOutput, Pos: accel.InsideMAC}
	seen := map[float64]bool{}
	for _, l := range res.Layers {
		seen[l.ProbMasked[cat]] = true
	}
	if len(seen) < 2 {
		t.Logf("warning: all layers show identical masking %v (possible at tiny samples)", seen)
	}
}

// The paper notes that other raw FF FIT rates (voltage noise, other nodes)
// can be substituted "and the general conclusions remain the same": Eq. 2 is
// linear in the raw rate, so all FIT ratios are invariant. A study reports
// Eq. 2 at the paper's 600 FIT/MB; its Layers recompute it at any other rate.
func TestRawRateScaleInvariance(t *testing.T) {
	w, err := model.Build("resnet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	res, err := Study(context.Background(), cfg, w, StudyOptions{Samples: 20, Inputs: 1, Tolerance: 0.1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	base, err := fit.Compute(cfg, fit.RawFITPerFF(600), res.Layers)
	if err != nil {
		t.Fatal(err)
	}
	if base.Total != res.FIT.Total {
		t.Errorf("FIT at 600 FIT/MB is %v, the study reported %v", base.Total, res.FIT.Total)
	}
	scaled, err := fit.Compute(cfg, fit.RawFITPerFF(6000), res.Layers)
	if err != nil {
		t.Fatal(err)
	}
	ratio := scaled.Total / base.Total
	if ratio < 9.99 || ratio > 10.01 {
		t.Errorf("10x raw rate should scale FIT 10x, got %v", ratio)
	}
	// The class breakdown shares are invariant.
	for class, v := range base.ByClass {
		bs := v / base.Total
		ss := scaled.ByClass[class] / scaled.Total
		if bs-ss > 1e-9 || ss-bs > 1e-9 {
			t.Errorf("%v share changed: %v vs %v", class, bs, ss)
		}
	}
}
