package fidelity

import (
	"context"
	"strings"
	"testing"

	"fidelity/internal/report"
)

func TestPublicAPIFlow(t *testing.T) {
	fw, err := New(NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	if len(fw.Models) != 7 {
		t.Fatalf("models = %d, want 7 (Table II rows)", len(fw.Models))
	}
	res, err := fw.Analyze(context.Background(), "resnet", FP16, StudyOptions{Samples: 14, Inputs: 2, Tolerance: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FIT.Total <= 0 {
		t.Error("FIT must be positive for an unprotected design")
	}
	if res.FIT.Total < FFBudget() {
		t.Errorf("unprotected FIT %v should exceed the ASIL-D budget %v", res.FIT.Total, FFBudget())
	}
}

func TestPublicTables(t *testing.T) {
	fw, err := New(NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	t2 := fw.TableII().String()
	for _, want := range []string{"beforeCBUF/input", "global-control", "37.9%", "16"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q:\n%s", want, t2)
		}
	}
	if !strings.Contains(fw.TableI().String(), "RF = 1") {
		t.Error("Table I missing RF=1 row")
	}
}

func TestPublicReuseAnalysis(t *testing.T) {
	// A broadcast input FF feeding 4 units — RF must be 4 (Fig 2a style).
	units := []UnitID{0, 1, 2, 3}
	in := ReuseInput{
		FFValueCycles:  1,
		Units:          func(l int) []UnitID { return units },
		InEffectCycles: func(m UnitID, l int) int { return 1 },
		Neurons: func(m UnitID, y, l int) []Neuron {
			return []Neuron{{C: int(m)}}
		},
	}
	res, err := AnalyzeReuse(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.RF != 4 {
		t.Errorf("RF = %d, want 4", res.RF)
	}
	models, err := DeriveModels(NVDLASmall())
	if err != nil || len(models) != 7 {
		t.Fatalf("DeriveModels: %v, %d", err, len(models))
	}
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if _, err := BuildWorkload(n, INT8, 1); err != nil {
			t.Errorf("BuildWorkload(%s): %v", n, err)
		}
	}
	if _, err := BuildWorkload("vgg", FP16, 1); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestValidationChartHelpers(t *testing.T) {
	rep := &ValidationReport{Total: 10, DatapathChecked: 3, DatapathExact: 3}
	s := report.ValidationTable(rep).String()
	if !strings.Contains(s, "datapath exact matches") {
		t.Errorf("validation table malformed:\n%s", s)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := NVDLASmall()
	cfg.AtomicK = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestFrameworkAnalyze(t *testing.T) {
	fw, err := New(NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Analyze(context.Background(), "mobilenet", FP16, StudyOptions{
		Samples: 14, Inputs: 2, Tolerance: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FIT.Total <= 0 {
		t.Error("FIT must be positive")
	}
	if _, err := fw.Analyze(context.Background(), "vgg", FP16, StudyOptions{Samples: 1, Inputs: 1}); err == nil {
		t.Error("unknown network should fail")
	}
}

func TestFrameworkValidateSmall(t *testing.T) {
	fw, err := New(NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.Validate(25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DatapathExact != rep.DatapathChecked {
		t.Errorf("datapath matches %d/%d: %v", rep.DatapathExact, rep.DatapathChecked, rep.Mismatches)
	}
	if !strings.Contains(report.ValidationTable(rep).String(), "RTL fault injections") {
		t.Error("validation table malformed")
	}
}

func TestFrameworkBaselineAndSpeedup(t *testing.T) {
	fw, err := New(NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := fw.NaiveBaseline(context.Background(), "resnet", FP16, BaselineOptions{
		Samples: 10, Inputs: 1, Tolerance: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Experiments != 10 {
		t.Errorf("experiments = %d", nb.Experiments)
	}
	sp, err := fw.Speedup(context.Background(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 6 {
		t.Errorf("speedup rows = %d, want 6 workloads", len(sp))
	}
}
