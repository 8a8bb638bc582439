// Command fidelity prints the FIdelity framework's derived artifacts for an
// accelerator design: the Reuse Factor Analysis summary (Table I), the
// software fault models (Table II), and the Fig 2 worked examples.
//
// Usage:
//
//	fidelity table1
//	fidelity table2 [-csv]
//	fidelity fig2 [-k 4] [-t 16]
//	fidelity census
//
// The injection campaign behind `sensitivity` runs in-process; cmd/study
// runs the full study figures, and cmd/fidelityd distributes the same
// campaigns over machines with byte-identical results.
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

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/core"
	hardenpkg "fidelity/internal/harden"
	"fidelity/internal/numerics"
	"fidelity/internal/report"
	"fidelity/internal/reuse"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the injection campaign behind `sensitivity`
	// cleanly at an experiment boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = table1()
	case "table2":
		err = table2(args)
	case "fig2":
		err = fig2(args)
	case "census":
		err = census()
	case "sensitivity":
		err = sensitivity(ctx, args)
	case "harden":
		err = harden(ctx, args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fidelity:", err)
		if errors.Is(err, errPartial) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// errPartial marks a campaign degraded by an exhausted shard failure budget;
// it maps to a distinct exit code so schedulers can tell flagged partial
// results from hard failures.
var errPartial = errors.New("partial result (a shard exhausted its failure budget)")

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fidelity <table1|table2|fig2|census|sensitivity|harden> [flags]

  table1       print the Reuse Factor Analysis summary (paper Table I)
  table2       print the derived NVDLA software fault models (paper Table II)
  fig2         run the Fig 2 reuse-factor examples (NVDLA-like and Eyeriss-like)
  census       print the FF census of the NVDLA-small configuration
  sensitivity  FIT bounds under perturbed FF-count/activeness estimates
  harden       closed hardening loop: campaign -> rank -> mitigate -> re-measure`)
}

func framework() (*core.Framework, error) {
	return core.New(accel.NVDLASmall())
}

func table1() error {
	fw, err := framework()
	if err != nil {
		return err
	}
	fmt.Print(fw.TableI().String())
	return nil
}

func table2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fw, err := framework()
	if err != nil {
		return err
	}
	if *csv {
		fmt.Print(fw.TableII().CSV())
	} else {
		fmt.Print(fw.TableII().String())
	}
	return nil
}

func fig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	k := fs.Int("k", 4, "NVDLA-like k (k² MACs) / Eyeriss-like array dimension")
	t := fs.Int("t", 16, "weight hold cycles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tab := report.NewTable(
		fmt.Sprintf("Fig 2 reuse-factor examples (k=%d, t=%d)", *k, *t),
		"Target", "Design", "Variable", "RF", "Faulty neuron pattern")
	add := func(name, design, variable string, in reuse.Input, pattern string) error {
		r, err := reuse.Analyze(in)
		if err != nil {
			return err
		}
		tab.Addf("%s|%s|%s|%d|%s", name, design, variable, r.RF, pattern)
		return nil
	}
	k2 := (*k) * (*k)
	if err := add("a1", "NVDLA-like", "weight", reuse.NVDLATargetA1(*t), "t consecutive neurons, one channel"); err != nil {
		return err
	}
	if err := add("a2", "NVDLA-like", "weight", reuse.NVDLATargetA2(*t), "1..t consecutive neurons (random cycle)"); err != nil {
		return err
	}
	if err := add("a3", "NVDLA-like", "weight", reuse.NVDLATargetA3(), "single neuron"); err != nil {
		return err
	}
	if err := add("a4", "NVDLA-like", "input", reuse.NVDLATargetA4(k2), "same 2D position, k² consecutive channels"); err != nil {
		return err
	}
	if err := add("b1", "Eyeriss-like", "weight", reuse.EyerissTargetB1(*k), "k consecutive rows, one column"); err != nil {
		return err
	}
	if err := add("b2", "Eyeriss-like", "input", reuse.EyerissTargetB2(*k, *t), "k rows × t channels, last column"); err != nil {
		return err
	}
	if err := add("b3", "Eyeriss-like", "bias", reuse.EyerissTargetB3(), "single neuron"); err != nil {
		return err
	}
	fmt.Print(tab.String())
	return nil
}

func sensitivity(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sensitivity", flag.ExitOnError)
	net := fs.String("net", "yolo", "workload")
	samples := fs.Int("samples", 200, "experiments per fault model")
	targetCI := fs.Float64("target-ci", 0, "adaptive stratified sampling: stop each stratum once its 95% Wilson CI half-width reaches this target (mutually exclusive with -samples; in (0, 0.5])")
	ffDelta := fs.Float64("ff", 0.3, "relative uncertainty of the FF-count estimate")
	actDelta := fs.Float64("act", 0.2, "relative uncertainty of the activeness estimates")
	expTimeout := fs.Duration("experiment-timeout", 0, "per-experiment watchdog deadline (0 = off)")
	failBudget := fs.Int("failure-budget", 0, "max quarantined experiments per shard (0 = default, negative = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *targetCI != 0 {
		samplesSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "samples" {
				samplesSet = true
			}
		})
		if samplesSet {
			fmt.Fprintln(os.Stderr, "fidelity: -samples and -target-ci are mutually exclusive")
			fs.Usage()
			os.Exit(2)
		}
		if *targetCI < 0 || *targetCI > 0.5 {
			fmt.Fprintf(os.Stderr, "fidelity: -target-ci must be in (0, 0.5] (got %g)\n", *targetCI)
			fs.Usage()
			os.Exit(2)
		}
		*samples = 0
	} else if *samples <= 0 {
		fmt.Fprintf(os.Stderr, "fidelity: -samples must be positive (got %d)\n", *samples)
		fs.Usage()
		os.Exit(2)
	}
	cfg := accel.NVDLASmall()
	fw, err := core.New(cfg)
	if err != nil {
		return err
	}
	res, err := fw.Analyze(ctx, *net, numerics.FP16, campaign.StudyOptions{
		Samples: *samples, TargetCI: *targetCI, Inputs: 2, Tolerance: 0.1, Seed: 1, Workers: runtime.NumCPU(),
		ExperimentTimeout: *expTimeout, FailureBudget: *failBudget,
	})
	if err != nil {
		return err
	}
	lo, hi, err := campaign.SensitivityBounds(ctx, cfg, res, *ffDelta, *actDelta)
	if err != nil {
		return err
	}
	fmt.Printf("%s FP16 @10%%: FIT = %.2f\n", *net, res.FIT.Total)
	fmt.Printf("sensitivity (FF count ±%.0f%%, activeness ±%.0f%%): FIT in [%.2f, %.2f]\n",
		*ffDelta*100, *actDelta*100, lo, hi)
	fmt.Printf("ASIL-D FF budget: %.2f — %s even at the optimistic bound\n",
		0.2, verdict(lo))
	if res.Partial {
		return fmt.Errorf("%s: %w (%d experiments quarantined)", *net, errPartial, len(res.Quarantined))
	}
	return nil
}

// harden runs the closed mitigation loop of internal/harden: measure the
// unhardened network per layer, derive and install golden-envelope clamps,
// re-measure the hardened network under the identical campaign (its own
// checkpoint identity), search duplication × global-control protection for
// the cheapest config meeting the budget, and emit the before/after FIT
// report as JSON.
func harden(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("harden", flag.ExitOnError)
	net := fs.String("net", "mobilenet", "workload to harden")
	samples := fs.Int("samples", 20, "experiments per fault model per layer execution")
	inputs := fs.Int("inputs", 2, "inputs per campaign (also the activation-profile set)")
	seed := fs.Int64("seed", 1, "campaign sampling seed")
	budget := fs.Float64("budget", 0, "FIT budget (0 = area-apportioned ASIL-D FF budget)")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines (results are worker-count independent)")
	out := fs.String("o", "", "write the JSON report to a file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samples <= 0 {
		fmt.Fprintf(os.Stderr, "fidelity: -samples must be positive (got %d)\n", *samples)
		fs.Usage()
		os.Exit(2)
	}
	if *inputs <= 0 {
		fmt.Fprintf(os.Stderr, "fidelity: -inputs must be positive (got %d)\n", *inputs)
		fs.Usage()
		os.Exit(2)
	}
	if *budget < 0 {
		fmt.Fprintf(os.Stderr, "fidelity: -budget must be non-negative (got %g)\n", *budget)
		fs.Usage()
		os.Exit(2)
	}
	rep, err := hardenpkg.Run(ctx, accel.NVDLASmall(), hardenpkg.Options{
		Net:       *net,
		Precision: numerics.FP16,
		Samples:   *samples,
		Inputs:    *inputs,
		Tolerance: 0.1,
		Seed:      *seed,
		Workers:   *workers,
		Budget:    *budget,
	})
	if err != nil {
		if rep != nil && rep.Partial {
			err = fmt.Errorf("%s: %w", *net, errPartial)
		}
		if rep == nil {
			return err
		}
	}
	if *out == "" {
		enc, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			return merr
		}
		os.Stdout.Write(append(enc, '\n'))
	} else if werr := campaign.AtomicWriteJSON(*out, rep); werr != nil {
		return werr
	}
	fmt.Fprintf(os.Stderr, "fidelity: %s FIT %.3f -> %.3f hardened (budget %.3f, meets=%v, dup time share %.1f%%)\n",
		*net, rep.Before.FIT, rep.HardenedFIT, rep.BudgetFIT, rep.MeetsASILD, rep.DupTimeShare*100)
	return err
}

func verdict(lo float64) string {
	if lo > 0.2 {
		return "fails"
	}
	return "may pass"
}

func census() error {
	cfg := accel.NVDLASmall()
	tab := report.NewTable(
		fmt.Sprintf("FF census of %s (%d FFs)", cfg.Name, cfg.NumFFs),
		"Category", "Component", "%FF", "decompress", "FP-only", "INT-only")
	for _, g := range cfg.Census {
		tab.Addf("%s|%s|%.1f%%|%.0f%%|%.0f%%|%.0f%%",
			g.Cat, g.Component, g.Frac*100,
			g.DecompressFrac*100, g.FPOnlyFrac*100, g.IntOnlyFrac*100)
	}
	fmt.Print(tab.String())
	return nil
}
