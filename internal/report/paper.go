package report

import (
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
)

// TableI renders the Reuse Factor Analysis summary (paper Table I).
func TableI() *Table {
	t := NewTable("Table I: Reuse Factor Analysis summary for datapath FFs",
		"Faulty FF position", "Variable types", "RF / faulty neurons")
	t.Add("before each level of on-chip memory", "input, weight, bias",
		"all users of the value (from scheduling/reuse algorithm)")
	t.Add("between L1 on-chip memory & MAC, inside MAC", "input, weight, bias",
		"from Algorithm 1 (Reuse Factor Analysis)")
	t.Add("inside and after MAC units", "partial sum, output", "RF = 1")
	t.Add("after MAC units", "bias", "neurons using the bias (Algorithm 1)")
	return t
}

// TableII renders the software fault models derived for cfg (paper Table II).
func TableII(cfg *accel.Config, models []faultmodel.Model) *Table {
	t := NewTable(
		fmt.Sprintf("Table II: software fault models for %s", cfg.Name),
		"Model", "Category", "%FF", "RF", "Software fault model")
	for _, m := range models {
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
func FITChart(title string, results []*campaign.StudyResult, protected bool) *BarChart {
	c := &BarChart{Title: title, Width: 50, RefLine: fit.FFBudget(), RefLabel: "ASIL-D FF budget"}
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
			Segment{Name: "datapath", Value: res.ByClass[accel.Datapath]},
			Segment{Name: "local", Value: res.ByClass[accel.LocalControl]},
			Segment{Name: "global", Value: res.ByClass[accel.GlobalControl]},
		)
	}
	return c
}

// ValidationTable renders the Sec. IV validation summary.
func ValidationTable(rep *campaign.ValidationReport) *Table {
	t := NewTable("Validation vs cycle-level golden reference (paper Sec. IV)",
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
