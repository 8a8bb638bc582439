package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"

	"fidelity/internal/campaign"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/telemetry"
	"fidelity/internal/tensor"
)

// traceCampaign is the traced pass of an in-process campaign workload. Its
// top-level spans are setup, reference (whole untraced campaigns the ratios
// are based on), campaign (the same campaign shard by shard), experiments
// (individually timed Injector.Run calls) and layers (micro-timed calls into
// single modules).
func (b *bench) traceCampaign(ctx context.Context, wl workload) (result, *tracer, error) {
	res := result{Workload: wl.name, Seed: b.seed, Size: sizeClass(b.quick), Traced: true}
	t := &campaignTrace{b: b, wl: wl, tr: newTracer(wl.name), rec: newRecorder(perLayer), check: newChecker(b, wl)}
	root := t.tr.begin("trace")
	for _, step := range []func(context.Context) error{t.setup, t.reference, t.sharded, t.experiments, t.layers} {
		if err := step(ctx); err != nil {
			return res, t.tr, err
		}
	}
	t.rec.value("campaign.peak_rss_mb", peakRSSMB(), 1, "VmHWM of the traced pass")
	t.tr.end(root)

	res.Metrics = t.rec.metrics()
	t.check.counts(res.Metrics)
	t.check.finish(&res)
	return res, t.tr, nil
}

// campaignTrace carries one traced campaign pass from step to step.
type campaignTrace struct {
	b     *bench
	wl    workload
	tr    *tracer
	rec   *recorder
	check *checker

	// What setup builds.
	w      *model.Workload
	models []faultmodel.Model
	x0     *tensor.Tensor
	golden *inject.Golden
	opts   campaign.StudyOptions
	strata []campaign.Stratum

	// wall1 is the untraced campaign's wall at Workers=1, the base of
	// trace.overhead_frac; seq is what the shard-by-shard campaign yielded.
	wall1 float64
	seq   shardTrace
}

// setup is what a caller does before the first campaign, call by call.
func (t *campaignTrace) setup(context.Context) error {
	id := t.tr.begin("setup")
	steps := []struct {
		name string
		fn   func() error
	}{
		{"model.Build", func() (err error) { t.w, err = t.wl.spec.BuildWorkload(); return }},
		{"faultmodel.Derive", func() (err error) { t.models, err = faultmodel.Derive(t.b.cfg); return }},
		{"dataset.Sample", func() (err error) { t.x0, err = dataset.Sample(t.w.Dataset, 0); return }},
		{"inject.TraceGolden", func() (err error) { t.golden, err = inject.TraceGolden(t.w, t.x0, true); return }},
	}
	for _, s := range steps {
		if _, err := t.tr.time(s.name, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	t.tr.end(id)
	t.opts = t.wl.spec.Options()
	t.opts.Workers = t.b.workers
	var err error
	t.strata, err = campaign.CampaignStrata(t.w, t.opts)
	return err
}

// tracedStudy runs one whole campaign through campaign.Study inside a span,
// checks its result and returns its wall in seconds and its experiment count.
func (b *bench) tracedStudy(ctx context.Context, tr *tracer, check *checker, w *model.Workload, name string, o campaign.StudyOptions) (float64, int, error) {
	var sr *campaign.StudyResult
	d, err := tr.time(name, func() (err error) { sr, err = campaign.Study(ctx, b.cfg, w, o); return })
	if err != nil {
		return 0, 0, err
	}
	out, err := studyOutcome(sr)
	if err != nil {
		return 0, 0, err
	}
	check.add(0, out)
	return d.Seconds(), sr.Experiments, nil
}

func (t *campaignTrace) study(ctx context.Context, name string, o campaign.StudyOptions) (float64, int, error) {
	return t.b.tracedStudy(ctx, t.tr, t.check, t.w, name, o)
}

// reference runs whole campaigns through campaign.Study: untraced and with a
// telemetry collector alternately, then at the other worker counts.
func (t *campaignTrace) reference(ctx context.Context) error {
	b, rec := t.b, t.rec
	id := t.tr.begin("reference")
	// The first campaign of a process is the cold one setup_s charges; run
	// it before anything a ratio is based on.
	if _, _, err := t.study(ctx, "campaign.Study cold", t.opts); err != nil {
		return err
	}
	var (
		plainS, telS []float64
		snap         telemetry.Snapshot
	)
	plain := func() error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, exps, err := t.study(ctx, "campaign.Study", t.opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		if len(plainS) == 0 {
			rec.value("campaign.mallocs_per_exp", float64(after.Mallocs-before.Mallocs)/float64(exps), 1, "one whole campaign")
			rec.value("campaign.alloc_bytes_per_exp", float64(after.TotalAlloc-before.TotalAlloc)/float64(exps), 1, "one whole campaign")
		}
		plainS = append(plainS, s)
		return nil
	}
	withTelemetry := func() error {
		col := telemetry.New()
		o := t.opts
		o.Telemetry = col
		s, _, err := t.study(ctx, "campaign.Study+telemetry", o)
		if err != nil {
			return err
		}
		telS = append(telS, s)
		snap = col.Snapshot()
		return nil
	}
	pairs := 2
	if b.quick {
		pairs = 1
	}
	for p := 0; p < pairs; p++ {
		// Alternate which side goes first so drift cancels.
		first, second := plain, withTelemetry
		if p%2 == 1 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	_, plainMed, _ := quartiles(plainS)
	_, telMed, _ := quartiles(telS)
	rec.value("telemetry.overhead_frac", telMed/plainMed-1, len(telS),
		fmt.Sprintf("Study with a Collector %.4fs over Telemetry=nil %.4fs, interleaved", telMed, plainMed))
	for _, ph := range snap.Phases {
		switch ph.Name {
		case "trace", "inject", "fit":
			rec.value("campaign."+ph.Name+"_phase_s", ph.Seconds, 1, "telemetry phase of one Study")
		}
	}

	// Scaling: the same campaign on one worker and on every CPU (at most 4),
	// whichever of the two the load shape does not already run.
	all := min(runtime.NumCPU(), 4)
	wall := map[int]float64{b.workers: plainMed}
	for _, n := range []int{1, all} {
		if _, done := wall[n]; done {
			continue
		}
		scaled := t.opts
		scaled.Workers = n
		prev := runtime.GOMAXPROCS(n)
		s, _, err := t.study(ctx, "campaign.Study workers="+strconv.Itoa(n), scaled)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		wall[n] = s
	}
	t.wall1 = wall[1]
	rec.value("campaign.scaling_eff", wall[1]/(float64(all)*wall[all]), 1,
		fmt.Sprintf("wall at Workers=1 %.4fs over %d x wall at Workers=GOMAXPROCS=%d %.4fs", wall[1], all, all, wall[all]))
	t.tr.end(id)
	return nil
}

// sharded runs the same campaign as sequential RunShard calls with a
// collector attached, then AssembleResult, and reads the replay, batch and
// kernel counts off the collector.
func (t *campaignTrace) sharded(ctx context.Context) error {
	b, rec, wl := t.b, t.rec, t.wl
	id := t.tr.begin("campaign")
	col := telemetry.New()
	withCollector := t.opts
	withCollector.Telemetry = col
	tilesBefore := nn.TileCount()
	var err error
	if t.seq, err = b.sequentialShards(ctx, t.tr, t.w, withCollector, t.strata); err != nil {
		return err
	}
	tiles := nn.TileCount() - tilesBefore
	var assembled *campaign.StudyResult
	asm, err := t.tr.time("campaign.AssembleResult", func() (err error) {
		assembled, err = campaign.AssembleResult(b.cfg, t.w, t.opts, t.seq.finals)
		return
	})
	if err != nil {
		return err
	}
	tracedWall := t.tr.end(id).Seconds()
	d, err := digestOf(assembled)
	if err != nil {
		return err
	}
	t.check.sameAs("sequential RunShard + AssembleResult", d)

	exps := float64(assembled.Experiments)
	rec.value("campaign.experiments", exps, 1, "")
	rec.value("campaign.rounds", float64(t.seq.rounds), 1, "")
	fixedEquivalent := len(t.strata) * wl.spec.Samples
	if wl.spec.TargetCI > 0 {
		fixedEquivalent = len(t.strata) * campaign.SamplesFor(wl.spec.TargetCI)
	}
	rec.value("campaign.exp_vs_fixed_ratio", exps/float64(fixedEquivalent), 1,
		fmt.Sprintf("a work ratio, not a time: %d experiments over %d strata x the fixed-count bound = %d", assembled.Experiments, len(t.strata), fixedEquivalent))
	rec.samples("campaign.shard_wall_ms_p50", t.seq.shardMS, "sequential RunShard calls")
	rec.value("campaign.shard_wall_ms_max", slices.Max(t.seq.shardMS), len(t.seq.shardMS), "slowest RunShard call")
	rec.value("campaign.shard_imbalance", mean(t.seq.imbalance), len(t.seq.imbalance), "slowest / mean shard wall, averaged over barriers")
	rec.value("campaign.assemble_ms", asm.Seconds()*1e3, 1, "")
	rec.value("trace.overhead_frac", tracedWall/t.wall1-1, 1,
		fmt.Sprintf("shard-by-shard traced campaign %.4fs over untraced Study at Workers=1 %.4fs", tracedWall, t.wall1))

	cs := col.Snapshot()
	if r := cs.Replay; r != nil {
		rec.value("nn.layers_skipped_per_exp", float64(r.LayersSkipped)/exps, 1, "")
		rec.value("nn.layers_recomputed_per_exp", float64(r.LayersRecomputed)/exps, 1, "")
		swept := 0.0
		if r.LayersRecomputed > 0 {
			swept = float64(r.RegionSwept) / float64(r.LayersRecomputed)
		}
		rec.value("nn.region_swept_frac", swept, 1, "region-swept share of recomputed layers")
		rec.value("nn.cache_hit_ratio", r.CacheHitRatio, 1, "skipped / (skipped + recomputed)")
		rec.value("nn.macs_avoided_per_exp", r.MACsAvoidedEst/exps, 1, "")
		rec.value("nn.arena_reuses_per_exp", float64(r.ArenaReuses)/exps, 1, "")
	}
	rec.value("nn.kernel_tiles_per_exp", float64(tiles)/exps, 1, "nn.TileCount delta over the shard-by-shard campaign, at GOMAXPROCS="+strconv.Itoa(b.workers))
	if cs.Batch != nil {
		rec.value("campaign.batch_avg_group_size", cs.Batch.AvgGroupSize, 1, "")
	} else {
		rec.value("campaign.batch_avg_group_size", 0, 1, "no experiment was batched: per-layer strata pin their site")
	}
	return nil
}

// experiments times single-goroutine Injector.Run calls rotating the fault
// models the way a campaign does.
func (t *campaignTrace) experiments(ctx context.Context) error {
	return t.b.traceExperiments(ctx, t.tr, t.rec, t.wl, t.w, t.models, t.golden)
}

// layers makes the micro-timed calls into single modules.
func (t *campaignTrace) layers(context.Context) error {
	id := t.tr.begin("layers")
	if err := t.b.probeCommon(t.tr, t.rec); err != nil {
		return err
	}
	if err := t.b.probeNetwork(t.tr, t.rec, t.wl, t.w, t.x0, t.golden, t.models); err != nil {
		return err
	}
	if err := t.b.probeCampaign(t.tr, t.rec, t.w, t.opts, t.strata, t.seq); err != nil {
		return err
	}
	t.tr.end(id)
	return nil
}

// shardTrace is what the shard-by-shard campaign yields.
type shardTrace struct {
	finals []campaign.ShardCheckpoint
	rounds int
	// shardMS is every RunShard call's wall; imbalance is, per barrier, the
	// slowest call over the mean call.
	shardMS, imbalance []float64
	// The planner inputs at the barrier after round 0, for timing PlanRound
	// on real tallies (nil for fixed-count campaigns).
	planHistory [][]int
	planTallies []campaign.Proportion
}

// sequentialShards runs the campaign one RunShard at a time, in shard order,
// planning adaptive rounds at the barriers exactly as the coordinator does:
// shards park, the merged tallies feed PlanRound, and the allocation is
// written into every parked checkpoint.
func (b *bench) sequentialShards(ctx context.Context, tr *tracer, w *model.Workload, opts campaign.StudyOptions, strata []campaign.Stratum) (shardTrace, error) {
	n := opts.Shards
	st := shardTrace{finals: make([]campaign.ShardCheckpoint, n)}
	resume := make([]*campaign.ShardCheckpoint, n)
	for barrier := 0; ; barrier++ {
		var walls []float64
		for i := 0; i < n; i++ {
			if st.finals[i].Done {
				continue
			}
			id := tr.begin("campaign.RunShard")
			sc, err := campaign.RunShard(ctx, b.cfg, w, opts, campaign.ShardRun{Index: i, Resume: resume[i]})
			d := tr.end(id, "shard", strconv.Itoa(i), "barrier", strconv.Itoa(barrier))
			if err != nil {
				return st, fmt.Errorf("shard %d: %w", i, err)
			}
			st.finals[i] = sc
			walls = append(walls, d.Seconds()*1e3)
		}
		st.shardMS = append(st.shardMS, walls...)
		if m := mean(walls); m > 0 {
			st.imbalance = append(st.imbalance, slices.Max(walls)/m)
		}
		if opts.TargetCI <= 0 {
			return st, nil
		}
		history := campaign.AdaptiveHistory(st.finals)
		tallies := campaign.StrataTallies(strata, st.finals)
		if len(history) == 1 {
			st.planHistory, st.planTallies = campaign.CloneHistory(history), tallies
		}
		var next []int
		var converged bool
		id := tr.begin("campaign.PlanRound")
		next, converged = campaign.PlanRound(strata, history, tallies, opts.TargetCI)
		tr.end(id, "barrier", strconv.Itoa(barrier))
		if converged {
			for i := range st.finals {
				campaign.FinalizeAdaptiveShard(&st.finals[i], opts.Inputs)
			}
			st.rounds = len(history)
			return st, nil
		}
		grown := append(campaign.CloneHistory(history), next)
		for i := range st.finals {
			st.finals[i].Adaptive.History = campaign.CloneHistory(grown)
			resume[i] = &st.finals[i]
		}
	}
}

// traceExperiments times wl.runs Injector.Run calls one by one on a single
// goroutine, each in its own span tagged with fault model and outcome.
func (b *bench) traceExperiments(ctx context.Context, tr *tracer, rec *recorder, wl workload, w *model.Workload, models []faultmodel.Model, golden *inject.Golden) error {
	id := tr.begin("experiments")
	sampler, err := faultmodel.NewSampler(models, b.seed)
	if err != nil {
		return err
	}
	inj := inject.New(w, sampler)
	if err := inj.PrepareGolden(golden); err != nil {
		return err
	}
	ids := faultmodel.AllIDs()
	// Every experiment draws from its own stream, as in a campaign, so the
	// outcomes depend on the seed and the index alone.
	seedOf := func(i int) int64 { return b.seed*1_000_003 + int64(i) }

	var all, masked, failed []float64
	for i := 0; i < wl.runs; i++ {
		fm := ids[i%len(ids)]
		sampler.Reseed(seedOf(i))
		sp := tr.begin("inject.Run")
		r, err := inj.Run(ctx, fm, wl.spec.Tolerance)
		us := float64(tr.end(sp, "model", fm.String(), "outcome", r.Outcome.String()).Nanoseconds()) / 1e3
		if err != nil {
			return fmt.Errorf("experiment %d (%v): %w", i, fm, err)
		}
		all = append(all, us)
		switch r.Outcome {
		case inject.Masked:
			masked = append(masked, us)
		case inject.OutputError:
			failed = append(failed, us)
		}
	}
	rec.samples("inject.exp_p50_us", all, "single-goroutine Injector.Run, fault models rotating")
	rec.value("inject.exp_p99_us", percentile(all, 99), len(all), "99th percentile of the same runs")
	rec.samples("inject.exp_masked_p50_us", masked, "runs whose outcome was masked")
	rec.samples("inject.exp_failed_p50_us", failed, "runs whose outcome was an output error (the suffix was walked and decoded)")
	rec.value("inject.masked_frac", float64(len(masked))/float64(len(all)), len(all), "")

	// Allocation per experiment, over the first runs again but without
	// spans, whose own allocations would otherwise be counted.
	n := min(wl.runs, 256)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sampler.Reseed(seedOf(i))
		if _, err := inj.Run(ctx, ids[i%len(ids)], wl.spec.Tolerance); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rec.value("inject.mallocs_per_exp", float64(after.Mallocs-before.Mallocs)/float64(n), n, "")
	rec.value("inject.alloc_bytes_per_exp", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n, "")
	tr.end(id)
	return nil
}

// probeCampaign times the campaign package's own pieces: the round planner
// and the sealed, fsynced checkpoint.
func (b *bench) probeCampaign(tr *tracer, rec *recorder, w *model.Workload, opts campaign.StudyOptions, strata []campaign.Stratum, seq shardTrace) error {
	history, tallies, target := seq.planHistory, seq.planTallies, opts.TargetCI
	note := "on the tallies at the barrier after round 0"
	if history == nil {
		// A fixed-count campaign has no barrier; plan one round on its final
		// tallies so the planner is still timed on this network's strata.
		round0 := make([]int, len(strata))
		for i := range round0 {
			round0[i] = 32
		}
		history, tallies, target = [][]int{round0}, campaign.StrataTallies(strata, seq.finals), 0.05
		note = "fixed-count campaign: one round planned on its final tallies at target 0.05"
	}
	planUS, _ := tr.each("campaign.PlanRound", b.count(200), 1e6, func() error {
		campaign.PlanRound(strata, history, tallies, target)
		return nil
	})
	rec.samples("campaign.plan_round_us", planUS, fmt.Sprintf("%d strata, %s", len(strata), note))

	dir, err := os.MkdirTemp(b.outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "checkpoint.json")
	cp := campaign.NewCheckpoint(b.cfg, w, opts, seq.finals)
	saveMS, err := tr.each("campaign.Checkpoint.Save", b.count(20), 1e3, func() error { return cp.Save(path) })
	if err != nil {
		return err
	}
	loadMS, err := tr.each("campaign.LoadCheckpoint", b.count(20), 1e3, func() error { _, err := campaign.LoadCheckpoint(path); return err })
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rec.samples("campaign.ckpt_save_ms", saveMS, "sealed + fsync + rename")
	rec.samples("campaign.ckpt_load_ms", loadMS, "read + verify seal")
	rec.value("campaign.ckpt_bytes", float64(fi.Size()), 1, "")
	return nil
}

// count scales a probe's repeat count down for the quick sizes.
func (b *bench) count(full int) int {
	if b.quick {
		return max(2, full/20)
	}
	return full
}
