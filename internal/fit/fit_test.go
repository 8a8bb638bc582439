package fit

import (
	"math"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/activeness"
	"fidelity/internal/numerics"
)

// uniformStats builds LayerStats with constant probabilities for testing.
func uniformStats(cfg *accel.Config, name string, exec, inactive, masked float64) LayerStats {
	s := LayerStats{
		Layer: name, ExecTime: exec,
		ProbInactive: map[accel.Category]float64{},
		ProbMasked:   map[accel.Category]float64{},
	}
	for _, g := range cfg.Census {
		s.ProbInactive[g.Cat] = inactive
		pm := masked
		if g.Cat.Class == accel.GlobalControl {
			pm = 0
		}
		s.ProbMasked[g.Cat] = pm
	}
	return s
}

func TestRawFITPerFF(t *testing.T) {
	perFF := RawFITPerFF(RawFFFITPerMB)
	want := 600.0 / (8 * 1024 * 1024)
	if math.Abs(perFF-want) > 1e-15 {
		t.Errorf("RawFITPerFF = %v, want %v", perFF, want)
	}
}

func TestFFBudget(t *testing.T) {
	if b := FFBudget(); math.Abs(b-0.2) > 1e-12 {
		t.Errorf("ASIL-D FF budget = %v, want 0.2", b)
	}
}

// With no masking and no inactivity, Eq. 2 reduces to FIT_raw × N_ff.
func TestComputeUpperBound(t *testing.T) {
	cfg := accel.NVDLASmall()
	raw := RawFITPerFF(RawFFFITPerMB)
	res, err := Compute(cfg, raw, []LayerStats{uniformStats(cfg, "l0", 100, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	want := raw * float64(cfg.NumFFs)
	if math.Abs(res.Total-want)/want > 1e-9 {
		t.Errorf("unmasked FIT = %v, want %v", res.Total, want)
	}
}

// Full masking of everything non-global leaves exactly the global share.
func TestComputeGlobalOnly(t *testing.T) {
	cfg := accel.NVDLASmall()
	raw := RawFITPerFF(RawFFFITPerMB)
	res, err := Compute(cfg, raw, []LayerStats{uniformStats(cfg, "l0", 10, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	want := raw * float64(cfg.NumFFs) * 0.113
	if math.Abs(res.Total-want)/want > 1e-9 {
		t.Errorf("global-only FIT = %v, want %v", res.Total, want)
	}
	if math.Abs(res.ByClass[accel.GlobalControl]-res.Total) > 1e-12 {
		t.Error("all FIT should be attributed to global control")
	}
}

// Exec-time weighting: a layer with twice the time dominates the average.
func TestComputeTimeWeighting(t *testing.T) {
	cfg := accel.NVDLASmall()
	raw := 1.0
	a := uniformStats(cfg, "fast", 1, 0, 1) // only global contributes
	b := uniformStats(cfg, "slow", 3, 0, 0) // everything contributes
	res, err := Compute(cfg, raw, []LayerStats{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: N_ff × [1/4 × 0.113 + 3/4 × 1.0].
	want := float64(cfg.NumFFs) * (0.25*0.113 + 0.75)
	if math.Abs(res.Total-want)/want > 1e-9 {
		t.Errorf("time-weighted FIT = %v, want %v", res.Total, want)
	}
}

// Inactivity scales contributions down.
func TestComputeInactivity(t *testing.T) {
	cfg := accel.NVDLASmall()
	full, _ := Compute(cfg, 1, []LayerStats{uniformStats(cfg, "l", 1, 0, 0)})
	half, err := Compute(cfg, 1, []LayerStats{uniformStats(cfg, "l", 1, 0.5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.Total-full.Total/2)/full.Total > 1e-9 {
		t.Errorf("50%% inactivity should halve FIT: %v vs %v", half.Total, full.Total)
	}
}

// Ablation of the FF activeness analysis: for one layer, the pessimistic
// always-active assumption must give a strictly larger FIT than Eq. 1's
// Prob_inactive from the performance model.
func TestAlwaysActiveOverestimatesFIT(t *testing.T) {
	cfg := accel.NVDLASmall()
	perf, err := activeness.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := activeness.Analyze(cfg, perf, accel.ConvSpec("c", 1, 16, 16, 64, 3, 3, 32, 1, numerics.FP16))
	if err != nil {
		t.Fatal(err)
	}
	eq1 := uniformStats(cfg, "l", 1, 0, 0.9)
	eq1.ProbInactive = an.ProbInactive
	raw := RawFITPerFF(RawFFFITPerMB)
	with, err := Compute(cfg, raw, []LayerStats{eq1})
	if err != nil {
		t.Fatal(err)
	}
	always, err := Compute(cfg, raw, []LayerStats{uniformStats(cfg, "l", 1, 0, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if always.Total <= with.Total {
		t.Errorf("always-active FIT %v should exceed the Eq. 1 FIT %v", always.Total, with.Total)
	}
}

func TestComputeValidation(t *testing.T) {
	cfg := accel.NVDLASmall()
	if _, err := Compute(cfg, 1, nil); err == nil {
		t.Error("no layers should fail")
	}
	if _, err := Compute(cfg, -1, []LayerStats{uniformStats(cfg, "l", 1, 0, 0)}); err == nil {
		t.Error("negative raw rate should fail")
	}
	bad := uniformStats(cfg, "l", 0, 0, 0)
	if _, err := Compute(cfg, 1, []LayerStats{bad}); err == nil {
		t.Error("zero exec time should fail")
	}
	missing := uniformStats(cfg, "l", 1, 0, 0)
	delete(missing.ProbMasked, accel.Category{Class: accel.GlobalControl})
	if _, err := Compute(cfg, 1, []LayerStats{missing}); err == nil {
		t.Error("missing category should fail")
	}
	oor := uniformStats(cfg, "l", 1, 0, 0)
	oor.ProbMasked[accel.Category{Class: accel.LocalControl}] = 1.5
	if _, err := Compute(cfg, 1, []LayerStats{oor}); err == nil {
		t.Error("out-of-range probability should fail")
	}
	badCfg := accel.NVDLASmall()
	badCfg.NumFFs = 0
	if _, err := Compute(badCfg, 1, []LayerStats{uniformStats(cfg, "l", 1, 0, 0)}); err == nil {
		t.Error("invalid config should fail")
	}
}

// Fig 6 scenario: protecting global control removes exactly the global
// contribution.
func TestComputeProtected(t *testing.T) {
	cfg := accel.NVDLASmall()
	stats := uniformStats(cfg, "l", 1, 0, 0.5)
	base, err := Compute(cfg, 1, []LayerStats{stats})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := ComputeProtected(cfg, 1, []LayerStats{stats})
	if err != nil {
		t.Fatal(err)
	}
	if prot.ByClass[accel.GlobalControl] != 0 {
		t.Error("protected run must have zero global contribution")
	}
	wantTotal := base.Total - base.ByClass[accel.GlobalControl]
	if math.Abs(prot.Total-wantTotal) > 1e-9 {
		t.Errorf("protected total = %v, want %v", prot.Total, wantTotal)
	}
	// Key Result 2's shape: datapath + local contributions survive.
	if prot.Total <= 0 {
		t.Error("datapath/local contributions must remain")
	}
}

// Class and category breakdowns must sum to the total.
func TestBreakdownConsistency(t *testing.T) {
	cfg := accel.NVDLASmall()
	res, err := Compute(cfg, 1, []LayerStats{
		uniformStats(cfg, "a", 2, 0.3, 0.6),
		uniformStats(cfg, "b", 5, 0.1, 0.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var byClass, byCat float64
	for _, v := range res.ByClass {
		byClass += v
	}
	for _, v := range res.ByCategory {
		byCat += v
	}
	if math.Abs(byClass-res.Total) > 1e-9*res.Total || math.Abs(byCat-res.Total) > 1e-9*res.Total {
		t.Errorf("breakdowns don't sum: class=%v cat=%v total=%v", byClass, byCat, res.Total)
	}
}
