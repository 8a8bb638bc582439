package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	hardenpkg "fidelity/internal/harden"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/report"
	"fidelity/internal/reuse"
)

func table1(*flag.FlagSet) func(context.Context) error {
	return func(context.Context) error {
		fmt.Print(report.TableI().String())
		return nil
	}
}

func table2(fs *flag.FlagSet) func(context.Context) error {
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	return func(context.Context) error {
		cfg := accel.NVDLASmall()
		models, err := faultmodel.Derive(cfg)
		if err != nil {
			return err
		}
		t := report.TableII(cfg, models)
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
		}
		return nil
	}
}

func fig2(fs *flag.FlagSet) func(context.Context) error {
	k := fs.Int("k", 4, "NVDLA-like k (k² MACs) / Eyeriss-like array dimension")
	t := fs.Int("t", 16, "weight hold cycles")
	return func(context.Context) error {
		tab := report.NewTable(
			fmt.Sprintf("Fig 2 reuse-factor examples (k=%d, t=%d)", *k, *t),
			"Target", "Design", "Variable", "RF", "Faulty neuron pattern")
		for _, ex := range []struct {
			name, design, variable, pattern string
			in                              reuse.Input
		}{
			{"a1", "NVDLA-like", "weight", "t consecutive neurons, one channel", reuse.NVDLATargetA1(*t)},
			{"a2", "NVDLA-like", "weight", "1..t consecutive neurons (random cycle)", reuse.NVDLATargetA2(*t)},
			{"a3", "NVDLA-like", "weight", "single neuron", reuse.NVDLATargetA3()},
			{"a4", "NVDLA-like", "input", "same 2D position, k² consecutive channels", reuse.NVDLATargetA4((*k) * (*k))},
			{"b1", "Eyeriss-like", "weight", "k consecutive rows, one column", reuse.EyerissTargetB1(*k)},
			{"b2", "Eyeriss-like", "input", "k rows × t channels, last column", reuse.EyerissTargetB2(*k, *t)},
			{"b3", "Eyeriss-like", "bias", "single neuron", reuse.EyerissTargetB3()},
		} {
			r, err := reuse.Analyze(ex.in)
			if err != nil {
				return err
			}
			tab.Addf("%s|%s|%s|%d|%s", ex.name, ex.design, ex.variable, r.RF, ex.pattern)
		}
		fmt.Print(tab.String())
		return nil
	}
}

func census(*flag.FlagSet) func(context.Context) error {
	return func(context.Context) error {
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
}

func sensitivity(fs *flag.FlagSet) func(context.Context) error {
	c := &cli{net: "yolo", opts: campaign.StudyOptions{
		Samples: 200, Inputs: 2, Tolerance: 0.1, Seed: 1, Workers: runtime.NumCPU(),
	}}
	ffDelta := fs.Float64("ff", 0.3, "relative uncertainty of the FF-count estimate")
	actDelta := fs.Float64("act", 0.2, "relative uncertainty of the activeness estimates")
	fNet.on(fs, c, "workload")
	fSamples.on(fs, c, "experiments per fault model")
	fTargetCI.on(fs, c, "adaptive stratified sampling: stop each stratum once its 95% Wilson CI half-width reaches this target (mutually exclusive with -samples; in (0, 0.5])")
	fExperimentTimeout.on(fs, c, "per-experiment watchdog deadline (0 = off)")
	fFailureBudget.on(fs, c, "max quarantined experiments per shard (0 = default, negative = unlimited)")
	return c.profiled(fs, func(ctx context.Context) error {
		if err := c.finish(fs); err != nil {
			return err
		}
		cfg := accel.NVDLASmall()
		w, err := model.Build(c.net, numerics.FP16, model.StudySeed)
		if err != nil {
			return err
		}
		res, err := campaign.Study(ctx, cfg, w, c.opts)
		if err != nil {
			return err
		}
		lo, hi, err := campaign.SensitivityBounds(ctx, cfg, res, *ffDelta, *actDelta)
		if err != nil {
			return err
		}
		fmt.Printf("%s FP16 @10%%: FIT = %.2f\n", c.net, res.FIT.Total)
		fmt.Printf("sensitivity (FF count ±%.0f%%, activeness ±%.0f%%): FIT in [%.2f, %.2f]\n",
			*ffDelta*100, *actDelta*100, lo, hi)
		verdict, budget := "may pass", fit.FFBudget()
		if lo > budget {
			verdict = "fails"
		}
		fmt.Printf("ASIL-D FF budget: %.2f — %s even at the optimistic bound\n", budget, verdict)
		if res.Partial {
			return fmt.Errorf("%s: %w (%d experiments quarantined)", c.net, errPartial, len(res.Quarantined))
		}
		return nil
	})
}

// harden runs the closed mitigation loop of internal/harden: measure the
// unhardened network per layer, derive and install golden-envelope clamps,
// re-measure the hardened network under the identical campaign (its own
// checkpoint identity), search duplication × global-control protection for
// the cheapest config meeting the budget, and emit the before/after FIT
// report as JSON.
func harden(fs *flag.FlagSet) func(context.Context) error {
	c := &cli{net: "mobilenet", opts: campaign.StudyOptions{
		Samples: 20, Inputs: 2, Tolerance: 0.1, Seed: 1, Workers: runtime.NumCPU(),
	}}
	budget := fs.Float64("budget", 0, "FIT budget (0 = area-apportioned ASIL-D FF budget)")
	out := fs.String("o", "", "write the JSON report to a file (default stdout)")
	fNet.on(fs, c, "workload to harden")
	fSamples.on(fs, c, "experiments per fault model per layer execution")
	fInputs.on(fs, c, "inputs per campaign (also the activation-profile set)")
	fSeed.on(fs, c, "campaign sampling seed")
	fWorkers.on(fs, c, "worker goroutines (results are worker-count independent)")
	return c.profiled(fs, func(ctx context.Context) error {
		if err := c.finish(fs); err != nil {
			return err
		}
		if *budget < 0 {
			return usagef("-budget must be non-negative (got %g)", *budget)
		}
		rep, err := hardenpkg.Run(ctx, accel.NVDLASmall(), hardenpkg.Options{
			Net: c.net, Precision: numerics.FP16, Budget: *budget, Study: c.opts,
		})
		if rep == nil {
			return err
		}
		if err != nil && rep.Partial {
			err = fmt.Errorf("%s: %w", c.net, errPartial)
		}
		if werr := writeJSON(*out, rep, "  "); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "fidelity: %s FIT %.3f -> %.3f hardened (budget %.3f, meets=%v, dup time share %.1f%%)\n",
			c.net, rep.Before.FIT, rep.HardenedFIT, rep.BudgetFIT, rep.MeetsASILD, rep.DupTimeShare*100)
		return err
	})
}

// validate runs the paper's Sec. IV validation campaign: RTL-style fault
// injections in the cycle-level golden reference (package rtlsim) against
// the Table III workloads, with every non-masked case checked against
// FIdelity's software fault models. The paper's campaign is 60K injections
// (10K per workload), the default here; -samples sets the per-workload count.
func validate(fs *flag.FlagSet) func(context.Context) error {
	c := &cli{opts: campaign.StudyOptions{Samples: 10000, Seed: 1}}
	verbose := fs.Bool("v", false, "print each mismatch (if any)")
	fSamples.on(fs, c, "RTL fault injections per Table III workload")
	fSeed.on(fs, c, "sampling seed")
	return c.profiled(fs, func(context.Context) error {
		cfg := accel.NVDLASmall()
		ws, err := campaign.TableIIIWorkloads()
		if err != nil {
			return err
		}
		rep, err := campaign.Validate(cfg, ws, c.opts.Samples, c.opts.Seed)
		if err != nil {
			return optionUsage(err)
		}
		fmt.Printf("validating %d workloads × %d injections on %s...\n", len(ws), c.opts.Samples, cfg.Name)
		fmt.Print(report.ValidationTable(rep).String())
		if *verbose {
			for _, m := range rep.Mismatches {
				fmt.Println("MISMATCH:", m)
			}
		}
		if len(rep.Mismatches) > 0 {
			fmt.Println()
			return fmt.Errorf("FAIL: %d software-model mismatches", len(rep.Mismatches))
		}
		if rep.Total == 0 {
			return errors.New("FAIL: no injection ran, nothing was checked")
		}
		fmt.Println("\nPASS: all checked cases match the software fault models" +
			" (datapath exact; RF=1 sets exact; global-control mostly non-masked)")
		return nil
	})
}
