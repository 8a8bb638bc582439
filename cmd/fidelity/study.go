package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/baseline"
	"fidelity/internal/campaign"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/report"
	"fidelity/internal/telemetry"
)

// study reproduces the paper's Sec. V large-scale resilience study and the
// Sec. VI comparisons. All campaign modes take -workers (parallel injection)
// and -perlayer (estimate Prob_SWmask per layer — the exact Eq. 2 form).
func study(fs *flag.FlagSet) func(context.Context) error {
	c := &cli{manifest: "study.manifest.json", opts: campaign.StudyOptions{
		Samples: 400, Inputs: 4, Seed: 1, Workers: runtime.NumCPU(),
		CheckpointPath: "study.checkpoint.json", CheckpointInterval: 30 * time.Second,
	}}
	fig := fs.Int("fig", 0, "reproduce figure 4, 5, or 6")
	setup := fs.Bool("setup", false, "print the Table IV experiment setup")
	perturbation := fs.Bool("perturbation", false, "Key Result 5: perturbation magnitude vs error probability")
	speedup := fs.Bool("speedup", false, "Sec. VI speedup comparison")
	naive := fs.Bool("baseline", false, "Sec. VI naive-FI comparison")
	protect := fs.Bool("protect", false, "selective-protection plan for yolo (Architectural Insights)")
	iters := fs.Int("iters", 200, "timing iterations for -speedup")
	resume := fs.String("resume", "", "resume an interrupted campaign from this checkpoint file")
	fSamples.on(fs, c, "injection experiments per fault model per workload")
	fTargetCI.on(fs, c, "adaptive stratified sampling: run planner rounds until every (layer, fault model) stratum's 95% Wilson CI half-width is at most this target (mutually exclusive with -samples; in (0, 0.5])")
	fInputs.on(fs, c, "distinct dataset inputs per workload")
	fSeed.on(fs, c, "sampling seed")
	fWorkers.on(fs, c, "parallel injection workers (affects speed only, never results)")
	fShards.on(fs, c, "deterministic sampling shards (0 = default; part of the campaign identity like -seed)")
	fPerLayer.on(fs, c, "estimate Prob_SWmask per layer (exact Eq. 2; multiplies experiment count)")
	fCheckpoint.on(fs, c, "checkpoint file for interrupted campaigns (empty disables)")
	fCheckpointInterval.on(fs, c, "periodic checkpoint save interval (0 = save only on interrupt)")
	fProgress.on(fs, c, "emit JSONL progress snapshots to stderr at this interval (0 = off)")
	fManifest.on(fs, c, "write a machine-readable run manifest to this file (empty disables)")
	fExperimentTimeout.on(fs, c, "per-experiment watchdog deadline; hung experiments are quarantined (0 = off)")
	fFailureBudget.on(fs, c, "max quarantined experiments per shard before the study degrades to a partial result (0 = default, negative = unlimited)")
	return c.profiled(fs, func(ctx context.Context) error {
		if err := c.finish(fs); err != nil {
			return err
		}
		if *iters <= 0 {
			return usagef("-iters must be positive (got %d)", *iters)
		}
		if c.opts.Workers < 0 {
			return usagef("-workers must be non-negative (got %d; 0 selects the default)", c.opts.Workers)
		}
		r := &runner{ctx: ctx, cli: c, cfg: accel.NVDLASmall(), tel: telemetry.New(), start: time.Now()}
		var mode func(*runner) error
		switch {
		case *setup:
			r.mode, mode = "setup", printSetup
		case *fig == 4:
			r.mode, mode = "fig4", fig4
		case *fig == 5:
			r.mode, mode = "fig5", fig5
		case *fig == 6:
			r.mode, mode = "fig6", fig6
		case *perturbation:
			r.mode, mode = "perturbation", keyResult5
		case *speedup:
			r.mode, mode = "speedup", func(r *runner) error { return speedupCmp(r, *iters) }
		case *naive:
			r.mode, mode = "baseline", naiveCmp
		case *protect:
			r.mode, mode = "protect", protectPlan
		default:
			return usagef("study needs a mode: -fig 4|5|6, -setup, -perturbation, -speedup, -baseline or -protect")
		}
		// Progress lines from an in-process campaign are attributed "local";
		// distributed runs (serve/work) attribute per worker ID instead.
		r.tel.SetSource("local")
		r.opts.Telemetry = r.tel
		if *resume != "" {
			cp, err := campaign.LoadCheckpoint(*resume)
			if err != nil {
				return err
			}
			r.opts.Resume = cp
			if r.opts.CheckpointPath == "" {
				r.opts.CheckpointPath = *resume
			}
			fmt.Fprintf(os.Stderr, "fidelity: resuming %s/%s@%g from %s (%d experiments done, %d quarantined)\n",
				cp.Workload, cp.Precision, cp.Tolerance, *resume, cp.Experiments, cp.Quarantined)
		}
		stopProgress := c.emitProgress(r.tel.Snapshot)
		err := mode(r)
		stopProgress()

		var intr *campaign.Interrupted
		if errors.As(err, &intr) {
			r.writeManifest(intr)
			if intr.Path != "" {
				fmt.Fprintf(os.Stderr, "fidelity: rerun with -resume %s to continue\n", intr.Path)
			}
		}
		if err != nil {
			return err
		}
		m := r.writeManifest(nil)
		if m.Partial {
			// Degraded run: keep the checkpoint (it completes the study once the
			// failure is fixed) and exit with a distinct code so schedulers can
			// tell a flagged partial result from a clean one.
			return fmt.Errorf("%w: %d experiments quarantined; checkpoint kept for resume", errPartial, m.Quarantined)
		}
		removeFinished(r.opts.CheckpointPath)
		return nil
	})
}

// runner threads the shared campaign machinery — context, options,
// telemetry, and the result log that feeds the run manifest — through the
// study modes.
type runner struct {
	*cli
	ctx     context.Context
	cfg     *accel.Config
	tel     *telemetry.Collector
	start   time.Time
	mode    string
	results []*campaign.StudyResult
}

// analyze runs one (workload, precision, tolerance) study cell and logs the
// result for the manifest.
func (r *runner) analyze(net string, prec numerics.Precision, tol float64) (*campaign.StudyResult, error) {
	opts := r.opts
	opts.Tolerance = tol
	w, err := model.Build(net, prec, model.StudySeed)
	if err != nil {
		return nil, err
	}
	res, err := campaign.Study(r.ctx, r.cfg, w, opts)
	if err != nil {
		return nil, err
	}
	r.results = append(r.results, res)
	return res, nil
}

// manifestResult summarizes one study cell in the run manifest.
type manifestResult struct {
	Workload     string  `json:"workload"`
	Precision    string  `json:"precision"`
	Tolerance    float64 `json:"tolerance"`
	FIT          float64 `json:"fit"`
	FITProtected float64 `json:"fit_protected"`
	Experiments  int     `json:"experiments"`
	// Quarantined counts experiments the supervisor removed from this cell;
	// Partial marks a cell degraded by an exhausted shard failure budget.
	Quarantined int  `json:"quarantined,omitempty"`
	Partial     bool `json:"partial,omitempty"`
}

// studyManifest is the machine-readable summary written next to the report
// output after every run.
type studyManifest struct {
	manifestHeader
	Seed        int64              `json:"seed"`
	Samples     int                `json:"samples"`
	TargetCI    float64            `json:"target_ci,omitempty"`
	Inputs      int                `json:"inputs"`
	Workers     int                `json:"workers"`
	Shards      int                `json:"shards"`
	PerLayer    bool               `json:"per_layer,omitempty"`
	Interrupted bool               `json:"interrupted,omitempty"`
	Partial     bool               `json:"partial,omitempty"`
	Quarantined int                `json:"quarantined,omitempty"`
	Checkpoint  string             `json:"checkpoint,omitempty"`
	Telemetry   telemetry.Snapshot `json:"telemetry"`
	Results     []manifestResult   `json:"results,omitempty"`
}

func (r *runner) writeManifest(intr *campaign.Interrupted) studyManifest {
	m := studyManifest{
		manifestHeader: newManifestHeader(r.mode, r.start),
		Seed:           r.opts.Seed, Samples: r.opts.Samples, TargetCI: r.opts.TargetCI, Inputs: r.opts.Inputs,
		Workers: r.opts.Workers, Shards: r.opts.Shards, PerLayer: r.opts.PerLayer,
		Telemetry: r.tel.Snapshot(),
	}
	if intr != nil {
		m.Interrupted = true
		m.Checkpoint = intr.Path
	}
	for _, res := range r.results {
		m.Results = append(m.Results, manifestResult{
			Workload: res.Workload, Precision: res.Precision, Tolerance: res.Tolerance,
			FIT: res.FIT.Total, FITProtected: res.FITProtected.Total,
			Experiments: res.Experiments,
			Quarantined: len(res.Quarantined), Partial: res.Partial,
		})
		m.Quarantined += len(res.Quarantined)
		if res.Partial {
			m.Partial = true
			m.Checkpoint = r.opts.CheckpointPath
		}
	}
	r.saveManifest(r.tel, m)
	return m
}

func printSetup(*runner) error {
	t := report.NewTable("Table IV: fault injection experiment setup",
		"Workload", "Dataset", "Metric", "Precisions")
	t.Add("inception, resnet, mobilenet", "imagenet-like / cifar10-like", "top-1 label match", "FP16, INT16, INT8")
	t.Add("transformer", "iwslt-like", "<10%/20% BLEU difference", "FP16")
	t.Add("yolo", "coco-like", "<10%/20% precision difference", "FP16")
	fmt.Print(t.String())
	fmt.Println("platform: pure-Go nn substrate (modified-TensorFlow analog); " +
		"paper total: 46M experiments, scaled here via -samples")
	return nil
}

// fig4: Accelerator FIT for the three CNNs across FP16/INT16/INT8.
func fig4(r *runner) error {
	var results []*campaign.StudyResult
	for _, net := range []string{"inception", "resnet", "mobilenet"} {
		for _, p := range []numerics.Precision{numerics.FP16, numerics.INT16, numerics.INT8} {
			res, err := r.analyze(net, p, 0.1)
			if err != nil {
				return err
			}
			results = append(results, res)
			fmt.Printf("  %s/%s: FIT=%.2f (datapath=%.2f local=%.2f global=%.2f), %d experiments\n",
				res.Workload, res.Precision, res.FIT.Total,
				res.FIT.ByClass[accel.Datapath], res.FIT.ByClass[accel.LocalControl],
				res.FIT.ByClass[accel.GlobalControl], res.Experiments)
		}
	}
	fmt.Println()
	fmt.Print(report.FITChart("Fig 4: Accelerator FIT rate (Inception/ResNet/MobileNet)", results, false).String())
	return nil
}

// fig5: Transformer and Yolo under both metric tolerances.
func fig5(r *runner) error {
	var results []*campaign.StudyResult
	for _, net := range []string{"transformer", "yolo"} {
		for _, tol := range []float64{0.1, 0.2} {
			res, err := r.analyze(net, numerics.FP16, tol)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
	}
	fmt.Print(report.FITChart("Fig 5: Accelerator FIT rate (Transformer & Yolo, 10%/20% tolerance)", results, false).String())
	return nil
}

// fig6: CNN FIT with all global control FFs protected.
func fig6(r *runner) error {
	var results []*campaign.StudyResult
	for _, net := range []string{"inception", "resnet", "mobilenet"} {
		res, err := r.analyze(net, numerics.FP16, 0.1)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	fmt.Print(report.FITChart("Fig 6: FIT with global control FFs protected", results, true).String())
	fmt.Println(keyResult2Note(results))
	return nil
}

// keyResult2Note is the line under Fig 6: Key Result 2 — datapath and local
// control FFs alone still exceed the ASIL-D FF budget — when every row's
// protected FIT is above fit.FFBudget, else the rows at or under it.
func keyResult2Note(results []*campaign.StudyResult) string {
	budget := fit.FFBudget()
	var under []string
	for _, res := range results {
		if res.FITProtected.Total <= budget {
			under = append(under, fmt.Sprintf("%s/%s %.3g", res.Workload, res.Precision, res.FITProtected.Total))
		}
	}
	if len(under) == 0 {
		return fmt.Sprintf("note: datapath + local control alone still exceed the %.2g ASIL-D FF budget (Key Result 2)", budget)
	}
	return fmt.Sprintf("note: with global control protected, %s at or under the %.2g ASIL-D FF budget (Key Result 2 does not hold there)",
		strings.Join(under, ", "), budget)
}

// keyResult5: error probability by perturbation magnitude for single-faulty-
// neuron experiments on the FP16 CNNs.
func keyResult5(r *runner) error {
	var small, large campaign.Proportion
	for _, net := range []string{"inception", "resnet", "mobilenet"} {
		res, err := r.analyze(net, numerics.FP16, 0.1)
		if err != nil {
			return err
		}
		small.Successes += res.Perturb.SmallFail.Successes
		small.Trials += res.Perturb.SmallFail.Trials
		large.Successes += res.Perturb.LargeFail.Successes
		large.Trials += res.Perturb.LargeFail.Trials
	}
	t := report.NewTable("Key Result 5: single-faulty-neuron experiments (FP16 CNNs)",
		"Perturbation", "P(application output error)", "n")
	t.Add("abs(delta) <= 100", fmt.Sprintf("%.3f", small.Mean()), fmt.Sprintf("%d", small.Trials))
	t.Add("abs(delta) > 100", fmt.Sprintf("%.3f", large.Mean()), fmt.Sprintf("%d", large.Trials))
	fmt.Print(t.String())
	fmt.Println("paper: <4% for small perturbations, >45% for large ones")
	return nil
}

func speedupCmp(r *runner, iters int) error {
	ws, err := campaign.TableIIIWorkloads()
	if err != nil {
		return err
	}
	reports, err := campaign.MeasureSpeedup(r.ctx, r.cfg, ws, iters, r.opts.Seed)
	if err != nil {
		return err
	}
	t := report.NewTable("Sec. VI: per-injection cost comparison",
		"Workload", "cycles", "software (s)", "cycle-sim (s)", "RTL est. (s)", "vs RTL", "vs mixed")
	for _, r := range reports {
		t.Addf("%s|%d|%.2e|%.2e|%.2e|%.0fx|%.0fx",
			r.Workload, r.Cycles, r.SoftwareSec, r.MixedSec, r.RTLSec, r.VsRTL, r.VsMixed)
	}
	fmt.Print(t.String())
	fmt.Println("paper: >10000x vs RTL, 40x-2200x vs mixed-mode")
	return nil
}

func naiveCmp(r *runner) error {
	t := report.NewTable("Sec. VI: naive software FI vs FIdelity",
		"Workload", "naive FIT", "FIdelity FIT", "underestimate")
	for _, net := range []string{"inception", "resnet", "mobilenet", "yolo", "transformer", "rnn"} {
		w, err := model.Build(net, numerics.FP16, model.StudySeed)
		if err != nil {
			return err
		}
		nb, err := baseline.Run(r.ctx, r.cfg, w, baseline.Options{
			Samples: r.opts.Samples, Inputs: r.opts.Inputs, Tolerance: 0.1, Seed: r.opts.Seed,
		})
		if err != nil {
			return err
		}
		opts := r.opts
		opts.Tolerance = 0.1
		st, err := campaign.Study(r.ctx, r.cfg, w, opts)
		if err != nil {
			return err
		}
		r.results = append(r.results, st)
		factor := fmt.Sprintf("%.1fx", baseline.Underestimate(st.FIT.Total, nb))
		if nb.FIT == 0 {
			// Zero observed naive failures: report the Wilson-bounded floor.
			factor = fmt.Sprintf(">%.0fx", baseline.UnderestimateBound(r.cfg, st.FIT.Total, nb))
		}
		t.Addf("%s|%.3f|%.3f|%s", net, nb.FIT, st.FIT.Total, factor)
	}
	fmt.Print(t.String())
	fmt.Println("paper: the naive technique underestimates by up to 25x")
	return nil
}

// protectPlan derives the minimal selective-protection scheme for yolo —
// the paper's Architectural Insights example.
func protectPlan(r *runner) error {
	res, err := r.analyze("yolo", numerics.FP16, 0.1)
	if err != nil {
		return err
	}
	plan, err := fit.PlanProtection(r.cfg, res.FIT, fit.FFBudget())
	if err != nil {
		return err
	}
	fmt.Printf("yolo FP16 @10%%: unprotected FIT = %.2f, budget = %.2f\n", res.FIT.Total, fit.FFBudget())
	fmt.Println(plan.String())
	return nil
}
