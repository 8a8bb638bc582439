// Command study reproduces the paper's Sec. V large-scale resilience study
// and the Sec. VI comparisons on the NVDLA-small configuration.
//
// Usage:
//
//	study -fig 4  [-samples N] [-inputs N] [-seed S]   # CNN FIT × precision
//	study -fig 5  ...                                  # Transformer & Yolo × tolerance
//	study -fig 6  ...                                  # global control protected
//	study -setup                                       # Table IV experiment setup
//	study -perturbation ...                            # Key Result 5
//	study -speedup [-iters N]                          # Sec. VI speedup comparison
//	study -baseline ...                                # Sec. VI naive-FI underestimate
//	study -protect ...                                 # selective-protection plan
//
// All campaign modes take -workers (parallel injection) and -perlayer
// (estimate Prob_SWmask per layer — the exact Eq. 2 form). The paper's study
// is 46M experiments; -samples scales the per-model count (Wilson 95% CIs
// are reported so the statistical resolution is explicit). -target-ci W
// replaces the fixed count with adaptive stratified sampling: planner rounds
// stop each stratum once its 95% Wilson CI half-width reaches W, typically
// at a small fraction of the fixed-count experiment budget.
//
// Campaigns are long-lived jobs, not function calls. SIGINT (Ctrl-C) stops
// the run at an experiment boundary and saves a resumable checkpoint to
// -checkpoint; rerunning with -resume <file> continues it to a result
// identical to an uninterrupted run. -progress <interval> emits JSONL
// telemetry snapshots to stderr (attributed source "local"), and -manifest
// writes a machine-readable run summary next to the report output.
//
// To fan a campaign out over machines instead of local -workers, see
// cmd/fidelityd: the same engine behind a coordinator/worker fabric, with
// byte-identical results for the same -seed and -shards.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/baseline"
	"fidelity/internal/campaign"
	"fidelity/internal/core"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/report"
	"fidelity/internal/telemetry"
)

func main() {
	fig := flag.Int("fig", 0, "reproduce figure 4, 5, or 6")
	setup := flag.Bool("setup", false, "print the Table IV experiment setup")
	perturbation := flag.Bool("perturbation", false, "Key Result 5: perturbation magnitude vs error probability")
	speedup := flag.Bool("speedup", false, "Sec. VI speedup comparison")
	naive := flag.Bool("baseline", false, "Sec. VI naive-FI comparison")
	samples := flag.Int("samples", 400, "injection experiments per fault model per workload")
	targetCI := flag.Float64("target-ci", 0, "adaptive stratified sampling: run planner rounds until every (layer, fault model) stratum's 95% Wilson CI half-width is at most this target (mutually exclusive with -samples; in (0, 0.5])")
	inputs := flag.Int("inputs", 4, "distinct dataset inputs per workload")
	iters := flag.Int("iters", 200, "timing iterations for -speedup")
	seed := flag.Int64("seed", 1, "sampling seed")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel injection workers (affects speed only, never results)")
	shards := flag.Int("shards", 0, "deterministic sampling shards (0 = default; part of the campaign identity like -seed)")
	perLayer := flag.Bool("perlayer", false, "estimate Prob_SWmask per layer (exact Eq. 2; multiplies experiment count)")
	protect := flag.Bool("protect", false, "selective-protection plan for yolo (Architectural Insights)")
	resume := flag.String("resume", "", "resume an interrupted campaign from this checkpoint file")
	checkpoint := flag.String("checkpoint", "study.checkpoint.json", "checkpoint file for interrupted campaigns (empty disables)")
	ckptInterval := flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint save interval (0 = save only on interrupt)")
	progress := flag.Duration("progress", 0, "emit JSONL progress snapshots to stderr at this interval (0 = off)")
	manifest := flag.String("manifest", "study.manifest.json", "write a machine-readable run manifest to this file (empty disables)")
	expTimeout := flag.Duration("experiment-timeout", 0, "per-experiment watchdog deadline; hung experiments are quarantined (0 = off)")
	failBudget := flag.Int("failure-budget", 0, "max quarantined experiments per shard before the study degrades to a partial result (0 = default, negative = unlimited)")
	ioRetries := flag.Int("io-retries", 0, "retries for transient checkpoint/manifest write failures (0 = default)")
	ioBackoff := flag.Duration("io-backoff", 0, "initial backoff between I/O retries, doubling per attempt (0 = default)")
	flag.Parse()
	if *targetCI != 0 {
		samplesSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "samples" {
				samplesSet = true
			}
		})
		if samplesSet {
			usageError("-samples and -target-ci are mutually exclusive (the adaptive planner sizes each stratum itself)")
		}
		if *targetCI < 0 || *targetCI > 0.5 {
			usageError("-target-ci must be in (0, 0.5] (got %g)", *targetCI)
		}
		*samples = 0
	} else if *samples <= 0 {
		usageError("-samples must be positive (got %d)", *samples)
	}
	if *inputs <= 0 {
		usageError("-inputs must be positive (got %d)", *inputs)
	}
	if *shards < 0 {
		usageError("-shards must be non-negative (got %d; 0 selects the default)", *shards)
	}
	if *iters <= 0 {
		usageError("-iters must be positive (got %d)", *iters)
	}
	if *workers < 0 {
		usageError("-workers must be non-negative (got %d; 0 selects the default)", *workers)
	}

	// SIGINT/SIGTERM cancel the campaign context; workers stop at an
	// experiment boundary and the engine saves a checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := accel.NVDLASmall()
	fw, err := core.New(cfg)
	if err != nil {
		fail(err)
	}
	r := &runner{
		ctx: ctx, fw: fw, cfg: cfg,
		tel:   telemetry.New(),
		start: time.Now(),
		opts: campaign.StudyOptions{
			Samples: *samples, TargetCI: *targetCI, Inputs: *inputs, Seed: *seed,
			Workers: *workers, Shards: *shards, PerLayer: *perLayer,
			CheckpointPath:     *checkpoint,
			CheckpointInterval: *ckptInterval,
			ExperimentTimeout:  *expTimeout,
			FailureBudget:      *failBudget,
			IORetries:          *ioRetries,
			IOBackoff:          *ioBackoff,
		},
	}
	// Progress lines from an in-process campaign are attributed "local";
	// distributed runs (fidelityd) attribute per worker ID instead.
	r.tel.SetSource("local")
	r.opts.Telemetry = r.tel
	if *resume != "" {
		cp, err := campaign.LoadCheckpoint(*resume)
		if err != nil {
			fail(err)
		}
		r.opts.Resume = cp
		if r.opts.CheckpointPath == "" {
			r.opts.CheckpointPath = *resume
		}
		fmt.Fprintf(os.Stderr, "study: resuming %s/%s@%g from %s (%d experiments done, %d quarantined)\n",
			cp.Workload, cp.Precision, cp.Tolerance, *resume, cp.Experiments, cp.Quarantined)
	}
	stopProgress := r.emitProgress(*progress)

	switch {
	case *setup:
		r.mode = "setup"
		printSetup()
	case *fig == 4:
		r.mode = "fig4"
		err = fig4(r)
	case *fig == 5:
		r.mode = "fig5"
		err = fig5(r)
	case *fig == 6:
		r.mode = "fig6"
		err = fig6(r)
	case *perturbation:
		r.mode = "perturbation"
		err = keyResult5(r)
	case *speedup:
		r.mode = "speedup"
		err = speedupCmp(ctx, fw, *iters, *seed)
	case *naive:
		r.mode = "baseline"
		err = naiveCmp(r)
	case *protect:
		r.mode = "protect"
		err = protectPlan(r)
	default:
		flag.Usage()
		os.Exit(2)
	}
	stopProgress()

	var intr *campaign.Interrupted
	if errors.As(err, &intr) {
		r.writeManifest(*manifest, intr)
		if intr.Path != "" {
			fmt.Fprintf(os.Stderr, "study: interrupted after %d experiments; checkpoint saved to %s\n",
				r.tel.Experiments(), intr.Path)
			fmt.Fprintf(os.Stderr, "study: rerun with -resume %s to continue\n", intr.Path)
		} else {
			fmt.Fprintln(os.Stderr, "study: interrupted (no -checkpoint configured; progress discarded)")
		}
		os.Exit(130)
	}
	if err != nil {
		fail(err)
	}
	partial := false
	for _, res := range r.results {
		if res.Partial {
			partial = true
		}
	}
	if partial {
		// Degraded run: keep the checkpoint (it completes the study once the
		// failure is fixed) and exit with a distinct code so schedulers can
		// tell a flagged partial result from a clean one.
		r.writeManifest(*manifest, nil)
		fmt.Fprintf(os.Stderr, "study: partial result: at least one shard exhausted its failure budget"+
			" (%d experiments quarantined); checkpoint kept for resume\n", quarantined(r.results))
		os.Exit(3)
	}
	// The campaign completed: a leftover (periodic or resumed-from)
	// checkpoint would only repeat the finished run, so clean it up.
	if p := r.opts.CheckpointPath; p != "" {
		if _, statErr := os.Stat(p); statErr == nil {
			os.Remove(p)
		}
	}
	r.writeManifest(*manifest, nil)
}

// quarantined totals the supervisor-removed experiments across study cells.
func quarantined(results []*campaign.StudyResult) int {
	n := 0
	for _, res := range results {
		n += len(res.Quarantined)
	}
	return n
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "study:", err)
	os.Exit(1)
}

// usageError rejects nonsensical flag values before any campaign state is
// touched: print the complaint and the usage text, exit 2 (the same code as
// an unknown mode).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "study: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// runner threads the shared campaign machinery — context, options,
// telemetry, and the result log that feeds the run manifest — through the
// study modes.
type runner struct {
	ctx     context.Context
	fw      *core.Framework
	cfg     *accel.Config
	opts    campaign.StudyOptions
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
	res, err := r.fw.Analyze(r.ctx, net, prec, opts)
	if err != nil {
		return nil, err
	}
	r.results = append(r.results, res)
	return res, nil
}

// emitProgress starts the periodic JSONL telemetry emitter (stderr, one
// snapshot per line) and returns its stop function.
func (r *runner) emitProgress(interval time.Duration) func() {
	if interval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		enc := json.NewEncoder(os.Stderr)
		var prev telemetry.Snapshot
		for {
			select {
			case <-t.C:
				snap := r.tel.Snapshot()
				line := progressLine{Snapshot: snap, IntervalPerSec: snap.RateSince(prev)}
				_ = enc.Encode(line)
				prev = snap
			case <-stop:
				return
			}
		}
	}()
	return func() { close(stop); <-done }
}

// progressLine is one JSONL progress record: the cumulative telemetry
// snapshot plus the experiments/sec over the last emission window.
type progressLine struct {
	telemetry.Snapshot
	IntervalPerSec float64 `json:"interval_per_sec"`
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

// runManifest is the machine-readable summary written next to the report
// output after every run.
type runManifest struct {
	Command     string             `json:"command"`
	Args        []string           `json:"args"`
	Mode        string             `json:"mode"`
	Start       time.Time          `json:"start"`
	End         time.Time          `json:"end"`
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

func (r *runner) writeManifest(path string, intr *campaign.Interrupted) {
	if path == "" {
		return
	}
	m := runManifest{
		Command: "study", Args: os.Args[1:], Mode: r.mode,
		Start: r.start, End: time.Now(),
		Seed: r.opts.Seed, Samples: r.opts.Samples, TargetCI: r.opts.TargetCI, Inputs: r.opts.Inputs,
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
	retries, backoff := r.opts.IORetries, r.opts.IOBackoff
	if retries <= 0 {
		retries = campaign.DefaultIORetries
	}
	if backoff <= 0 {
		backoff = campaign.DefaultIOBackoff
	}
	err := campaign.RetryIO(r.tel, retries, backoff, func() error {
		return campaign.AtomicWriteJSON(path, m)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "study: manifest:", err)
	}
}

func printSetup() {
	t := report.NewTable("Table IV: fault injection experiment setup",
		"Workload", "Dataset", "Metric", "Precisions")
	t.Add("inception, resnet, mobilenet", "imagenet-like / cifar10-like", "top-1 label match", "FP16, INT16, INT8")
	t.Add("transformer", "iwslt-like", "<10%/20% BLEU difference", "FP16")
	t.Add("yolo", "coco-like", "<10%/20% precision difference", "FP16")
	fmt.Print(t.String())
	fmt.Println("platform: pure-Go nn substrate (modified-TensorFlow analog); " +
		"paper total: 46M experiments, scaled here via -samples")
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
	fmt.Print(core.FITChart("Fig 4: Accelerator FIT rate (Inception/ResNet/MobileNet)", results, false).String())
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
	fmt.Print(core.FITChart("Fig 5: Accelerator FIT rate (Transformer & Yolo, 10%/20% tolerance)", results, false).String())
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
	fmt.Print(core.FITChart("Fig 6: FIT with global control FFs protected", results, true).String())
	fmt.Println("note: datapath + local control alone still exceed the 0.2 ASIL-D FF budget (Key Result 2)")
	return nil
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

func speedupCmp(ctx context.Context, fw *core.Framework, iters int, seed int64) error {
	reports, err := fw.Speedup(ctx, iters, seed)
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
		w, err := model.Build(net, numerics.FP16, 42)
		if err != nil {
			return err
		}
		nb, err := baseline.Run(r.cfg, w, baseline.Options{
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
			factor = fmt.Sprintf(">%.0fx", baseline.UnderestimateBound(r.cfg, st.FIT.Total, nb, 0))
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
