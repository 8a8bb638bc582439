package harden

import (
	"context"
	"errors"
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

// Options configures the closed hardening loop.
type Options struct {
	// Net names the zoo workload; Precision its datapath format.
	Net       string
	Precision numerics.Precision
	// Budget is the FIT target (0 = the area-apportioned ASIL-D FF budget,
	// fit.FFBudget()).
	Budget float64
	// Study configures both campaigns. The baseline and hardened runs use
	// it unchanged except that Run forces PerLayer, and the hardened run has
	// the hardening fingerprint in its checkpoint identity. Its Telemetry,
	// when non-nil, collects both campaigns' counters plus the harden block
	// (clamp activity, duplicated-site count). Run rejects CheckpointPath,
	// Resume and TargetCI: the loop checkpoints neither campaign (one path
	// and one checkpoint cannot serve two identities), and an adaptive plan
	// would size the two campaigns differently.
	Study campaign.StudyOptions
}

// FITSummary is one campaign's FIT view in the hardening report.
type FITSummary struct {
	// FIT is the Eq. 2 total; FITGlobalProtected assumes hardened
	// global-control FFs (paper Fig 6).
	FIT                float64 `json:"fit"`
	FITGlobalProtected float64 `json:"fit_global_protected"`
	// Experiments counts the campaign's injection runs.
	Experiments int `json:"experiments"`
}

// Report is the before/after hardening report `fidelity harden` emits as
// JSON.
type Report struct {
	Workload  string  `json:"workload"`
	Precision string  `json:"precision"`
	BudgetFIT float64 `json:"budget_fit"`
	// Config is the recommended mitigation config; Fingerprint the digest of
	// the whole config (Config.Fingerprint: clamps, duplicated layers and
	// global-control protection), not the campaign's checkpoint identity.
	Config      Config `json:"config"`
	Fingerprint string `json:"fingerprint"`
	// Before measures the unhardened network; After re-measures it with the
	// clamps installed.
	Before FITSummary `json:"before"`
	After  FITSummary `json:"after"`
	// HardenedFIT is the final residual after the full config: measured
	// clamp effect, modeled duplication, and global-control protection when
	// the config includes it.
	HardenedFIT float64 `json:"hardened_fit"`
	// DupTimeShare is the execution-time share the duplicated layers re-run.
	DupTimeShare float64 `json:"duplicated_time_share"`
	// MeetsASILD reports whether HardenedFIT is below BudgetFIT: with the
	// default budget, the area-apportioned ASIL-D budget for the FFs.
	MeetsASILD bool `json:"meets_asil_d"`
	// Partial marks a degraded run: a shard of either campaign exhausted
	// its failure budget.
	Partial bool `json:"partial,omitempty"`
}

// Run executes the closed hardening loop: measure the unhardened network
// per layer, profile its golden activation envelopes, install the clamps,
// re-measure under the identical campaign (same seed and shard structure,
// distinct checkpoint identity), then search duplication × global-control
// protection for the cheapest config meeting the budget. Both campaigns are
// shard-deterministic, so the whole report is a pure function of
// (accelerator config, Options).
func Run(ctx context.Context, acfg *accel.Config, opts Options) (*Report, error) {
	if s := opts.Study; s.CheckpointPath != "" || s.Resume != nil || s.TargetCI != 0 {
		return nil, errors.New("harden: Options.Study may not set CheckpointPath, Resume or TargetCI")
	}
	if opts.Budget <= 0 {
		opts.Budget = fit.FFBudget()
	}
	base := opts.Study
	base.PerLayer = true // duplication ranks layer executions, so Eq. 2 needs per-layer Prob_SWmask

	w, err := model.Build(opts.Net, opts.Precision, model.StudySeed)
	if err != nil {
		return nil, err
	}
	baseline, err := campaign.Study(ctx, acfg, w, base)
	if err != nil {
		return nil, err
	}

	prof, err := Profile(w, base.Inputs)
	if err != nil {
		return nil, err
	}
	cfg, err := RangeRestriction(prof, Config{})
	if err != nil {
		return nil, err
	}

	// Re-measure on a freshly built copy of the workload with the clamps
	// installed; they give the hardened campaign its own checkpoint identity.
	hw, err := model.Build(opts.Net, opts.Precision, model.StudySeed)
	if err != nil {
		return nil, err
	}
	if err := cfg.Apply(hw.Net); err != nil {
		return nil, err
	}
	clamped, err := campaign.Study(ctx, acfg, hw, base)
	if err != nil {
		return nil, err
	}

	// Search duplication × global-control protection on the post-clamp
	// measurement.
	cfg, err = RecommendationSearch(acfg, clamped, opts.Budget, cfg)
	if err != nil {
		return nil, err
	}
	if tel := base.Telemetry; tel != nil {
		tel.SetDuplicatedSites(len(cfg.Duplicated))
	}

	dup := make(map[string]bool, len(cfg.Duplicated))
	for _, l := range cfg.Duplicated {
		dup[l] = true
	}
	layers := fit.DuplicateLayers(clamped.Layers, dup)
	var hardened *fit.Result
	if cfg.ProtectGlobal {
		hardened, err = fit.ComputeProtected(acfg, clamped.RawPerFF, layers)
	} else {
		hardened, err = fit.Compute(acfg, clamped.RawPerFF, layers)
	}
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Workload:  opts.Net,
		Precision: opts.Precision.String(),
		BudgetFIT: opts.Budget,
		Config:    cfg,
		Before: FITSummary{
			FIT:                baseline.FIT.Total,
			FITGlobalProtected: baseline.FITProtected.Total,
			Experiments:        baseline.Experiments,
		},
		After: FITSummary{
			FIT:                clamped.FIT.Total,
			FITGlobalProtected: clamped.FITProtected.Total,
			Experiments:        clamped.Experiments,
		},
		HardenedFIT: hardened.Total,
		MeetsASILD:  hardened.Total < opts.Budget,
		Partial:     baseline.Partial || clamped.Partial,
	}
	if rep.Fingerprint, err = cfg.Fingerprint(); err != nil {
		return nil, err
	}
	var totalTime float64
	for _, l := range clamped.Layers {
		totalTime += l.ExecTime
	}
	if totalTime > 0 {
		for _, l := range clamped.Layers {
			if dup[l.Layer] {
				rep.DupTimeShare += l.ExecTime / totalTime
			}
		}
	}
	if rep.Partial {
		return rep, fmt.Errorf("harden: partial result (a shard exhausted its failure budget)")
	}
	return rep, nil
}
