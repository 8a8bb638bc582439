package activeness

import (
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/numerics"
)

func model(t *testing.T) (*accel.Config, *Model) {
	t.Helper()
	cfg := accel.NVDLASmall()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, m
}

func TestNewModelValidates(t *testing.T) {
	cfg := accel.NVDLASmall()
	cfg.NumFFs = 0
	if _, err := NewModel(cfg); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestEstimateBreakdown(t *testing.T) {
	_, m := model(t)
	l := accel.ConvSpec("c", 1, 16, 16, 64, 3, 3, 32, 1, numerics.FP16)
	b, err := m.Estimate(l)
	if err != nil {
		t.Fatal(err)
	}
	if b.FetchCycles <= 0 || b.MACCycles <= 0 || b.PostCycles <= 0 || b.TotalCycles <= 0 {
		t.Fatalf("breakdown has non-positive phases: %+v", b)
	}
	// A 3x3x32 reduction per output is heavily compute-bound on 16 MACs.
	if b.MACCycles < b.FetchCycles {
		t.Errorf("this layer should be compute-bound: mac=%d fetch=%d", b.MACCycles, b.FetchCycles)
	}
	if b.TotalCycles < b.MACCycles {
		t.Error("makespan cannot beat the MAC busy time")
	}
}

func TestEstimateRejectsBadLayer(t *testing.T) {
	_, m := model(t)
	bad := accel.ConvSpec("c", 0, 16, 16, 64, 3, 3, 32, 1, numerics.FP16)
	if _, err := m.Estimate(bad); err == nil {
		t.Error("invalid layer should fail")
	}
}

// A memory-bound layer (1x1 kernel, few channels, huge input) must show MAC
// idleness (Class 3), while a compute-bound layer must show fetch idleness.
func TestClass3FollowsBoundedness(t *testing.T) {
	cfg, m := model(t)
	memBound := accel.FCSpec("fc", 1, 4096, 16, numerics.FP16)
	compBound := accel.ConvSpec("conv", 1, 32, 32, 128, 3, 3, 64, 1, numerics.FP16)

	am, err := Analyze(cfg, m, memBound)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := Analyze(cfg, m, compBound)
	if err != nil {
		t.Fatal(err)
	}
	macCat := accel.Category{Class: accel.Datapath, Var: accel.VarOutput, Pos: accel.InsideMAC}
	fetchCat := accel.Category{Class: accel.Datapath, Var: accel.VarInput, Pos: accel.BeforeCBUF}

	pmMem := am.ProbInactive[macCat]
	pmComp := ac.ProbInactive[macCat]
	if pmMem <= pmComp {
		t.Errorf("MAC FFs should idle more on memory-bound layers: %v vs %v", pmMem, pmComp)
	}
	pfMem := am.ProbInactive[fetchCat]
	pfComp := ac.ProbInactive[fetchCat]
	if pfComp <= pfMem {
		t.Errorf("fetch FFs should idle more on compute-bound layers: %v vs %v", pfComp, pfMem)
	}
}

// Class 2: the FP-only share of MAC FFs must be inactive for INT workloads
// but active for FP16.
func TestClass2PrecisionDependence(t *testing.T) {
	cfg, m := model(t)
	cat := accel.Category{Class: accel.Datapath, Var: accel.VarWeight, Pos: accel.CBUFToMAC}
	fp := accel.ConvSpec("c", 1, 8, 8, 32, 3, 3, 16, 1, numerics.FP16)
	i8 := fp
	i8.Precision = numerics.INT8

	af, err := Analyze(cfg, m, fp)
	if err != nil {
		t.Fatal(err)
	}
	ai, err := Analyze(cfg, m, i8)
	if err != nil {
		t.Fatal(err)
	}
	pf := af.ProbInactive[cat]
	pi := ai.ProbInactive[cat]
	// The census has FPOnlyFrac=0.25 > IntOnlyFrac=0.10 for this category, so
	// INT workloads idle strictly more of it.
	if pi <= pf {
		t.Errorf("INT8 should idle more CBUF→MAC FFs than FP16: %v vs %v", pi, pf)
	}
}

// Class 1: uncompressed weights idle the decompression unit.
func TestClass1Decompression(t *testing.T) {
	cfg, m := model(t)
	cat := accel.Category{Class: accel.Datapath, Var: accel.VarWeight, Pos: accel.BeforeCBUF}
	plain := accel.ConvSpec("c", 1, 8, 8, 32, 3, 3, 16, 1, numerics.FP16)
	compressed := plain
	compressed.WeightsCompressed = true

	ap, err := Analyze(cfg, m, plain)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := Analyze(cfg, m, compressed)
	if err != nil {
		t.Fatal(err)
	}
	pp := ap.ProbInactive[cat]
	pc := ac.ProbInactive[cat]
	if pp <= pc {
		t.Errorf("uncompressed weights should idle the decompression FFs: %v vs %v", pp, pc)
	}
}

// All probabilities must be valid, and config registers (global control)
// must be essentially always active.
func TestProbabilitiesInRange(t *testing.T) {
	cfg, m := model(t)
	l := accel.ConvSpec("c", 1, 8, 8, 32, 3, 3, 16, 1, numerics.INT16)
	a, err := Analyze(cfg, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ProbInactive) != len(cfg.Census) {
		t.Fatalf("analysis covers %d categories, want %d", len(a.ProbInactive), len(cfg.Census))
	}
	for cat, p := range a.ProbInactive {
		if p < 0 || p > 1 {
			t.Errorf("%v: Prob_inactive = %v out of range", cat, p)
		}
	}
	pg, ok := a.ProbInactive[accel.Category{Class: accel.GlobalControl}]
	if !ok {
		t.Fatal("no analysis for global control")
	}
	if pg != 0 {
		t.Errorf("global config FFs should be always active, got inactive prob %v", pg)
	}
}
