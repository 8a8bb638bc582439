package fidelity

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at benchmark-controlled scale. Each benchmark prints the
// paper-style rows once (on the first iteration) and then measures the cost
// of the underlying experiment unit, so `go test -bench=. -benchmem`
// produces both the reproduction artifacts and the performance profile.
//
//	BenchmarkTableII      — software fault model derivation (Table II)
//	BenchmarkFig2         — Reuse Factor Analysis worked examples (Fig 2)
//	BenchmarkValidation   — Sec. IV software-model-vs-golden validation
//	BenchmarkFig4         — CNN FIT × precision (Fig 4)
//	BenchmarkFig5         — Transformer/Yolo FIT × tolerance (Fig 5)
//	BenchmarkFig6         — global-control-protected FIT (Fig 6)
//	BenchmarkKeyResult5   — perturbation-magnitude split (Key Result 5)
//	BenchmarkSpeedup      — Sec. VI per-injection cost comparison
//	BenchmarkBaseline     — Sec. VI naive-FI underestimate
//	BenchmarkAblation*    — design-choice ablations (see DESIGN.md §5)

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/activeness"
	"fidelity/internal/baseline"
	"fidelity/internal/campaign"
	"fidelity/internal/core"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/reuse"
)

var printOnce sync.Map

// once prints s a single time per key across benchmark iterations.
func once(b *testing.B, key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + s)
	}
}

func BenchmarkTableII(b *testing.B) {
	cfg := accel.NVDLASmall()
	fw, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "table2", fw.TableII().String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultmodel.Derive(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	var sb []byte
	for _, ex := range []struct {
		name string
		in   reuse.Input
	}{
		{"a1", reuse.NVDLATargetA1(16)},
		{"a2", reuse.NVDLATargetA2(16)},
		{"a3", reuse.NVDLATargetA3()},
		{"a4", reuse.NVDLATargetA4(16)},
		{"b1", reuse.EyerissTargetB1(12)},
		{"b2", reuse.EyerissTargetB2(12, 7)},
		{"b3", reuse.EyerissTargetB3()},
	} {
		r, err := reuse.Analyze(ex.in)
		if err != nil {
			b.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("%s: RF=%d\n", ex.name, r.RF)...)
	}
	once(b, "fig2", string(sb))
	in := reuse.NVDLATargetA4(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reuse.Analyze(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidation(b *testing.B) {
	cfg := accel.NVDLASmall()
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	rep, err := campaign.Validate(cfg, ws, 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "validation", core.ValidationTable(rep).String())
	if rep.DatapathExact != rep.DatapathChecked {
		b.Fatalf("validation mismatches: %v", rep.Mismatches)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Validate(cfg, ws[:1], 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStudy runs one figure's study cells at bench scale and prints the
// chart once.
func benchStudy(b *testing.B, key, title string, cells []struct {
	net  string
	prec numerics.Precision
	tol  float64
}, protected bool) {
	cfg := accel.NVDLASmall()
	fw, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var results []*campaign.StudyResult
	for _, c := range cells {
		r, err := fw.Analyze(context.Background(), c.net, c.prec, campaign.StudyOptions{
			Samples: 60, Inputs: 2, Tolerance: c.tol, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}
	once(b, key, core.FITChart(title, results, protected).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Analyze(context.Background(), cells[0].net, cells[0].prec, campaign.StudyOptions{
			Samples: 7, Inputs: 1, Tolerance: cells[0].tol, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

type cell = struct {
	net  string
	prec numerics.Precision
	tol  float64
}

func BenchmarkFig4(b *testing.B) {
	var cells []cell
	for _, net := range []string{"inception", "resnet", "mobilenet"} {
		for _, p := range []numerics.Precision{numerics.FP16, numerics.INT16, numerics.INT8} {
			cells = append(cells, cell{net, p, 0.1})
		}
	}
	benchStudy(b, "fig4", "Fig 4: Accelerator FIT (CNNs x precision)", cells, false)
}

func BenchmarkFig5(b *testing.B) {
	cells := []cell{
		{"transformer", numerics.FP16, 0.1},
		{"transformer", numerics.FP16, 0.2},
		{"yolo", numerics.FP16, 0.1},
		{"yolo", numerics.FP16, 0.2},
	}
	benchStudy(b, "fig5", "Fig 5: Accelerator FIT (Transformer & Yolo x tolerance)", cells, false)
}

func BenchmarkFig6(b *testing.B) {
	cells := []cell{
		{"inception", numerics.FP16, 0.1},
		{"resnet", numerics.FP16, 0.1},
		{"mobilenet", numerics.FP16, 0.1},
	}
	benchStudy(b, "fig6", "Fig 6: FIT with global control protected", cells, true)
}

func BenchmarkKeyResult5(b *testing.B) {
	cfg := accel.NVDLASmall()
	fw, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var small, large campaign.Proportion
	for _, net := range []string{"inception", "resnet"} {
		r, err := fw.Analyze(context.Background(), net, numerics.FP16, campaign.StudyOptions{
			Samples: 120, Inputs: 2, Tolerance: 0.1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		small.Successes += r.Perturb.SmallFail.Successes
		small.Trials += r.Perturb.SmallFail.Trials
		large.Successes += r.Perturb.LargeFail.Successes
		large.Trials += r.Perturb.LargeFail.Trials
	}
	once(b, "kr5", fmt.Sprintf(
		"Key Result 5: P(error | single faulty neuron):\n  |delta| <= 100: %.3f (n=%d)\n  |delta| >  100: %.3f (n=%d)\n",
		small.Mean(), small.Trials, large.Mean(), large.Trials))
	if small.Trials > 20 && large.Trials > 20 && large.Mean() <= small.Mean() {
		b.Errorf("large perturbations should fail more often: %.3f vs %.3f", large.Mean(), small.Mean())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Analyze(context.Background(), "resnet", numerics.FP16, campaign.StudyOptions{
			Samples: 7, Inputs: 1, Tolerance: 0.1, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedup(b *testing.B) {
	cfg := accel.NVDLASmall()
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	reports, err := campaign.MeasureSpeedup(context.Background(), cfg, ws, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	var sb []byte
	for _, r := range reports {
		sb = append(sb, fmt.Sprintf("%s: vsRTL=%.0fx vsMixed=%.0fx\n", r.Workload, r.VsRTL, r.VsMixed)...)
	}
	once(b, "speedup", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.MeasureSpeedup(context.Background(), cfg, ws[:1], 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseline(b *testing.B) {
	cfg := accel.NVDLASmall()
	w, err := model.Build("resnet", numerics.FP16, model.StudySeed)
	if err != nil {
		b.Fatal(err)
	}
	nb, err := baseline.Run(cfg, w, baseline.Options{Samples: 80, Inputs: 2, Tolerance: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := campaign.Study(context.Background(), cfg, w, campaign.StudyOptions{Samples: 40, Inputs: 2, Tolerance: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	once(b, "naive", fmt.Sprintf("naive FIT=%.3f vs FIdelity FIT=%.3f (underestimate %.1fx)\n",
		nb.FIT, st.FIT.Total, baseline.Underestimate(st.FIT.Total, nb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Run(cfg, w, baseline.Options{Samples: 4, Inputs: 1, Tolerance: 0.1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationActiveness quantifies how much the FF activeness analysis
// (Eq. 1) changes the FIT estimate — disabling it is the pessimistic
// "always active" assumption.
func BenchmarkAblationActiveness(b *testing.B) {
	cfg := accel.NVDLASmall()
	perf, err := activeness.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	spec := accel.ConvSpec("c", 1, 16, 16, 64, 3, 3, 32, 1, numerics.FP16)
	an, err := activeness.Analyze(cfg, perf, spec)
	if err != nil {
		b.Fatal(err)
	}
	withAct := fit.LayerStats{Layer: "l", ExecTime: 1, ProbInactive: an.ProbInactive,
		ProbMasked: map[accel.Category]float64{}}
	noAct := fit.LayerStats{Layer: "l", ExecTime: 1, ProbInactive: map[accel.Category]float64{},
		ProbMasked: map[accel.Category]float64{}}
	for _, g := range cfg.Census {
		withAct.ProbMasked[g.Cat] = 0.9
		noAct.ProbMasked[g.Cat] = 0.9
		noAct.ProbInactive[g.Cat] = 0
	}
	raw := fit.RawFITPerFF(fit.RawFFFITPerMB)
	rw, err := fit.Compute(cfg, raw, []fit.LayerStats{withAct})
	if err != nil {
		b.Fatal(err)
	}
	rn, err := fit.Compute(cfg, raw, []fit.LayerStats{noAct})
	if err != nil {
		b.Fatal(err)
	}
	once(b, "ablation-act", fmt.Sprintf(
		"activeness ablation: FIT with Eq.1 = %.3f, always-active = %.3f (%.2fx pessimism)\n",
		rw.Total, rn.Total, rn.Total/rw.Total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := activeness.Analyze(cfg, perf, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHoldCycles sweeps the weight-hold parameter t — the
// FF_value_cycles sensitivity analysis DESIGN.md calls out.
func BenchmarkAblationHoldCycles(b *testing.B) {
	var sb []byte
	for _, t := range []int{1, 4, 16, 64} {
		r, err := reuse.Analyze(reuse.NVDLATargetA2(t))
		if err != nil {
			b.Fatal(err)
		}
		sb = append(sb, fmt.Sprintf("t=%d -> weight RF=%d\n", t, r.RF)...)
	}
	once(b, "ablation-hold", string(sb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reuse.Analyze(reuse.NVDLATargetA2(16)); err != nil {
			b.Fatal(err)
		}
	}
}
