// Package core assembles the FIdelity framework of paper Fig 3: given an
// accelerator description and a DNN workload, it derives software fault
// models (Reuse Factor Analysis → Table II), performs FF activeness analysis
// (Eq. 1), runs software fault-injection campaigns, and computes the
// Accelerator_FIT_rate (Eq. 2) — plus the validation flow of Sec. IV and the
// report renderers for every table and figure.
package core

import (
	"context"
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/baseline"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/report"
)

// Framework is a FIdelity instance bound to one accelerator design.
type Framework struct {
	Config *accel.Config
	Models []faultmodel.Model
}

// New derives the software fault models for a design and returns the bound
// framework.
func New(cfg *accel.Config) (*Framework, error) {
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	return &Framework{Config: cfg, Models: models}, nil
}

// Analyze runs the full Fig 3 flow for one workload: build the network at
// the requested precision, inject faults per software fault model, and
// compute the FIT rate. Cancelling ctx interrupts the campaign cleanly; see
// campaign.Study for checkpoint/resume semantics.
func (f *Framework) Analyze(ctx context.Context, netName string, prec numerics.Precision, opts campaign.StudyOptions) (*campaign.StudyResult, error) {
	w, err := model.Build(netName, prec, model.StudySeed)
	if err != nil {
		return nil, err
	}
	return campaign.Study(ctx, f.Config, w, opts)
}

// Validate runs the Sec. IV validation campaign on the Table III workloads.
func (f *Framework) Validate(samplesPerWorkload int, seed int64) (*campaign.ValidationReport, error) {
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		return nil, err
	}
	return campaign.Validate(f.Config, ws, samplesPerWorkload, seed)
}

// NaiveBaseline runs the naive single-bit-flip technique of Sec. VI for
// comparison.
func (f *Framework) NaiveBaseline(netName string, prec numerics.Precision, opts baseline.Options) (*baseline.Result, error) {
	w, err := model.Build(netName, prec, model.StudySeed)
	if err != nil {
		return nil, err
	}
	return baseline.Run(f.Config, w, opts)
}

// Speedup measures the Sec. VI per-injection cost comparison.
func (f *Framework) Speedup(ctx context.Context, iters int, seed int64) ([]campaign.Speedup, error) {
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		return nil, err
	}
	return campaign.MeasureSpeedup(ctx, f.Config, ws, iters, seed)
}

// TableI renders the Reuse Factor Analysis summary (paper Table I).
func (f *Framework) TableI() *report.Table {
	t := report.NewTable("Table I: Reuse Factor Analysis summary for datapath FFs",
		"Faulty FF position", "Variable types", "RF / faulty neurons")
	t.Add("before each level of on-chip memory", "input, weight, bias",
		"all users of the value (from scheduling/reuse algorithm)")
	t.Add("between L1 on-chip memory & MAC, inside MAC", "input, weight, bias",
		"from Algorithm 1 (Reuse Factor Analysis)")
	t.Add("inside and after MAC units", "partial sum, output", "RF = 1")
	t.Add("after MAC units", "bias", "neurons using the bias (Algorithm 1)")
	return t
}

// TableII renders the derived software fault models (paper Table II).
func (f *Framework) TableII() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Table II: software fault models for %s", f.Config.Name),
		"Model", "Category", "%FF", "RF", "Software fault model")
	for _, m := range f.Models {
		rf := fmt.Sprintf("%d", m.RF)
		desc := ""
		switch {
		case m.RFAllUsers:
			rf = "all users"
			desc = "bit-flip at one value; all neurons using it recomputed"
		case m.RFAll:
			rf = "ALL"
			desc = "system failure"
		case m.ID == faultmodel.LocalControl:
			desc = "random value at one output neuron"
		case m.ID == faultmodel.OutputPSum:
			desc = "bit-flip at one output neuron / partial sum"
		default:
			desc = fmt.Sprintf("bit-flip at one value; <= %d windowed neurons recomputed", m.RF)
		}
		t.Addf("%s|%s|%.1f%%|%s|%s", m.ID, m.Cat, m.FFFrac*100, rf, desc)
	}
	return t
}

// FITChart renders a Fig 4/5-style stacked FIT chart for a set of study
// results, with the ASIL-D FF budget as the reference line.
func FITChart(title string, results []*campaign.StudyResult, protected bool) *report.BarChart {
	c := &report.BarChart{Title: title, Width: 50, RefLine: fit.FFBudget(), RefLabel: "ASIL-D FF budget"}
	for _, r := range results {
		res := r.FIT
		if protected {
			res = r.FITProtected
		}
		label := fmt.Sprintf("%s/%s", r.Workload, r.Precision)
		if r.Tolerance > 0 {
			label += fmt.Sprintf("@%g%%", r.Tolerance*100)
		}
		c.Add(label,
			report.Segment{Name: "datapath", Value: res.ByClass[accel.Datapath]},
			report.Segment{Name: "local", Value: res.ByClass[accel.LocalControl]},
			report.Segment{Name: "global", Value: res.ByClass[accel.GlobalControl]},
		)
	}
	return c
}

// MaskingTable renders a study's Prob_SWmask estimates with their Wilson
// 95% confidence intervals — the step-2 output of the Fig 3 flow.
func MaskingTable(res *campaign.StudyResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Prob_SWmask for %s (%s, tol %g)", res.Workload, res.Precision, res.Tolerance),
		"Fault model", "masked", "95% CI", "n")
	for _, id := range faultmodel.AllIDs() {
		p, ok := res.Masked[id]
		if !ok {
			continue
		}
		lo, hi := p.Wilson(1.96)
		t.Addf("%v|%.4f|[%.4f, %.4f]|%d", id, p.Mean(), lo, hi, p.Trials)
	}
	return t
}

// ValidationTable renders the Sec. IV validation summary.
func ValidationTable(rep *campaign.ValidationReport) *report.Table {
	t := report.NewTable("Validation vs cycle-level golden reference (paper Sec. IV)",
		"Quantity", "Value")
	t.Addf("RTL fault injections|%d", rep.Total)
	t.Addf("fired (live FF at fault cycle)|%d", rep.Fired)
	t.Addf("non-masked cases|%d", rep.NonMasked)
	t.Addf("system time-outs (all global)|%d", rep.Timeouts)
	t.Addf("datapath cases checked|%d", rep.DatapathChecked)
	t.Addf("datapath exact matches (set+values)|%d", rep.DatapathExact)
	t.Addf("RF=1 set-only cases checked|%d", rep.SetChecked)
	t.Addf("RF=1 set matches|%d", rep.SetMatch)
	t.Addf("local-control cases checked|%d", rep.LocalChecked)
	t.Addf("local-control neuron matches|%d", rep.LocalMatch)
	t.Addf("active global-control faults|%d", rep.GlobalFired)
	t.Addf("global-control masked fraction|%.3f", rep.GlobalMaskedFrac())
	t.Addf("model mismatches|%d", len(rep.Mismatches))
	return t
}
