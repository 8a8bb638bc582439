package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/telemetry"
)

// DefaultShards is the number of logical sampling shards a study splits its
// experiment space into when StudyOptions.Shards is zero. Shards — not
// workers — own the deterministic random streams, so results depend only on
// (Seed, Shards), never on the worker count.
const DefaultShards = 16

// experimentWindow is the shard loop's supervised window: consecutive
// experiments of one (input, fault model[, layer]) sample loop are executed
// window by window, and flat-mode windows are additionally pre-drawn and
// grouped by their target site execution so same-site experiments amortize
// one golden prefix and one arena working set. Windowing changes execution
// order only — every experiment draws its whole stream from a cursor-derived
// seed and tallies commit in cursor order at window boundaries, so results
// and checkpoints are byte-identical for every window size (the conformance
// suite pins 1, 5 and 64 on campaigns whose sample loops hold more than one
// window, which it checks from telemetry).
const experimentWindow = 64

// StudyOptions parameterizes a Sec. V resilience study for one workload.
type StudyOptions struct {
	// Samples is the number of fault-injection experiments per software
	// fault model (the paper uses statistically significant counts; the
	// Wilson half-width of the masking estimates is reported).
	Samples int
	// TargetCI switches the campaign to adaptive stratified sampling:
	// instead of a fixed Samples per fault model, every (layer, fault-model)
	// stratum runs until its masking estimate's 95% Wilson half-width is at
	// most TargetCI (or the worst-case bound SamplesFor(TargetCI) is spent).
	// Mutually exclusive with Samples; must be in (0, 0.5]. Experiments run
	// in rounds planned only at shard barriers from merged tallies in
	// canonical stratum order, so results stay a pure function of (Seed,
	// Shards, TargetCI) — never of Workers. Part of the campaign's
	// checkpoint identity (format v3).
	TargetCI float64
	// Inputs is the number of distinct dataset inputs to rotate through.
	Inputs int
	// Tolerance is the score tolerance for BLEU/detection metrics (0.1 or
	// 0.2 per Table IV; ignored for Top-1).
	Tolerance float64
	// Seed drives all sampling.
	Seed int64
	// Workers runs the injection experiments on this many goroutines
	// (0/1 = sequential). Workload networks are read-only during injection,
	// so sharding is safe. The worker count affects only wall-clock time:
	// experiments are partitioned into Shards deterministic streams, so any
	// Workers value produces identical tallies for a fixed Seed.
	Workers int
	// Shards is the number of independent deterministic sampling streams
	// (0 = DefaultShards). It is part of a study's identity: changing it
	// changes which experiments are drawn, like changing Seed.
	Shards int
	// PerLayer estimates Prob_SWmask(cat, r) separately for every layer r
	// (the exact Eq. 2 form) instead of one network-wide aggregate. The
	// experiment count multiplies by the number of layer executions.
	PerLayer bool

	// CheckpointPath, when non-empty, is where the engine saves a resumable
	// JSON checkpoint: always on cancellation, and periodically every
	// CheckpointInterval while running (0 disables periodic saves).
	CheckpointPath     string
	CheckpointInterval time.Duration
	// Resume continues a previously interrupted study. A checkpoint whose
	// identity (workload, precision, tolerance, samples, inputs, seed,
	// shards, per-layer, the clamps installed on the network) does not match
	// this study is ignored and the study runs from scratch — so one
	// checkpoint file can safely be offered to every cell of a multi-workload
	// figure.
	Resume *Checkpoint
	// Telemetry, when non-nil, receives per-experiment outcome counts,
	// per-phase wall-clock timings, and the supervisor's recovery counters.
	Telemetry *telemetry.Collector
	// ExperimentTimeout bounds one injection experiment's wall-clock time.
	// A positive value runs every experiment under a per-shard watchdog: an
	// experiment that exceeds the deadline is abandoned on its goroutine,
	// quarantined, and the shard continues on a fresh injector. 0 disables
	// the watchdog and runs experiments inline.
	ExperimentTimeout time.Duration
	// FailureBudget caps, per shard and per run, how many experiments the
	// supervisor may quarantine (recovered panics plus timeouts) before the
	// shard stops contributing and the study degrades into a partial result
	// (StudyResult.Partial). 0 selects DefaultFailureBudget; negative means
	// unlimited.
	FailureBudget int
	// chaos is the test-only failure injector of the chaos self-test
	// harness; always nil in production.
	chaos *chaosPolicy
	// observe is a test-only per-experiment observer, called for every
	// completed (non-quarantined) experiment.
	observe func(shard int, cur Cursor, id faultmodel.ID, r inject.Result)
	// oracle is the test-only reference seam: golden traces are recorded
	// without activations, so every experiment runs the plain full forward
	// pass instead of the replay engine. The conformance suite requires
	// byte-identical results and checkpoints either way.
	oracle bool
	// window is a test-only override of experimentWindow (0 = the constant).
	window int
}

// goldenCache memoizes the per-input golden state (sampled input tensor,
// clean inference, replay trace, sampling weights) so a run's shards record
// it once instead of once per shard. Keyed by input index: the workload and
// replay mode are fixed for the run the cache belongs to.
type goldenCache struct {
	mu      sync.Mutex
	entries map[int]*inject.Golden
}

func (c *goldenCache) get(w *model.Workload, input int, withReplay bool) (*inject.Golden, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.entries[input]; ok {
		return g, nil
	}
	x, err := dataset.Sample(w.Dataset, input)
	if err != nil {
		return nil, err
	}
	g, err := inject.TraceGolden(w, x, withReplay)
	if err != nil {
		return nil, err
	}
	if c.entries == nil {
		c.entries = map[int]*inject.Golden{}
	}
	c.entries[input] = g
	return g, nil
}

// shards returns the resolved shard count.
func (o StudyOptions) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return DefaultShards
}

// OptionError is a StudyOptions value the sampling rule rejects. Option is
// the field's lower-case hyphenated name — the spelling of the CLI flag that
// sets it — so a front end can point at the flag without re-stating the rule.
type OptionError struct{ Option, Problem string }

func (e *OptionError) Error() string { return "campaign: " + e.Option + " " + e.Problem }

// Validate is the sampling rule, stated once for the engine, the wire spec
// (distrib.CampaignSpec.Validate) and the CLI: exactly one of Samples
// (fixed-count) and TargetCI (adaptive, in (0, 0.5]) drives the campaign,
// Inputs is positive and Shards is not negative (0 selects DefaultShards).
func (o StudyOptions) Validate() error {
	switch {
	case o.TargetCI < 0 || o.TargetCI > 0.5:
		return &OptionError{"target-ci", fmt.Sprintf("must be in (0, 0.5] (got %g)", o.TargetCI)}
	case o.TargetCI > 0 && o.Samples != 0:
		return &OptionError{"samples", "and target-ci are mutually exclusive"}
	case o.TargetCI == 0 && o.Samples <= 0:
		return &OptionError{"samples", fmt.Sprintf("must be positive (got %d)", o.Samples)}
	case o.Inputs <= 0:
		return &OptionError{"inputs", fmt.Sprintf("must be positive (got %d)", o.Inputs)}
	case o.Shards < 0:
		return &OptionError{"shards", fmt.Sprintf("must be non-negative (got %d; 0 selects the default)", o.Shards)}
	}
	return nil
}

// Every calls fn on its own goroutine once per interval until the returned
// stop is called; stop returns only after the goroutine has exited, so fn
// never overlaps what the caller does next. A non-positive interval starts
// nothing. The CLI's JSONL progress emitter and a fleet worker's lease
// heartbeat run on it. ShardRunner.Run starts none: it streams progress from
// the shard's experiment boundaries, and Study's dispatcher saves checkpoints
// from the loop that owns the schedule.
func Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-quit:
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}

// windowSize returns the resolved supervised window.
func (o StudyOptions) windowSize() int {
	if o.window > 0 {
		return o.window
	}
	return experimentWindow
}

// shardSeed derives the independent stream seed of one logical shard.
func shardSeed(seed int64, shard int) int64 { return seed*1_000_003 + int64(shard) }

// PerturbationStats is the Key Result 5 measurement over experiments that
// corrupt exactly one output neuron: application-error probability split by
// perturbation magnitude.
type PerturbationStats struct {
	// SmallFail is P(output error | single faulty neuron, |Δ| <= 100).
	SmallFail Proportion
	// LargeFail is P(output error | single faulty neuron, |Δ| > 100).
	LargeFail Proportion
}

// StudyResult is the full study output for one (workload, precision,
// tolerance) cell of Figs 4/5.
type StudyResult struct {
	Workload  string
	Precision string
	Tolerance float64
	// Masked holds Prob_SWmask per software fault model with its CI.
	Masked map[faultmodel.ID]*Proportion
	// FIT is the Eq. 2 result; FITProtected assumes global control FFs are
	// protected (Fig 6).
	FIT, FITProtected *fit.Result
	// Perturb is the Key Result 5 statistic.
	Perturb PerturbationStats
	// Experiments counts all injection runs performed (including any
	// restored from a resumed checkpoint).
	Experiments int
	// Layers retains the Eq. 2 per-layer inputs so FIT can be recomputed
	// under perturbed assumptions (sensitivity analysis) without re-running
	// the injection campaign.
	Layers []fit.LayerStats
	// RawPerFF is the per-FF raw FIT rate used.
	RawPerFF float64
	// Quarantined lists the experiments the supervision layer removed from
	// the campaign after framework failures (recovered panics, watchdog
	// timeouts), sorted by (shard, cursor). Their outcomes are excluded
	// from every statistic above.
	Quarantined []QuarantinedExperiment
	// Partial marks a degraded campaign: at least one shard stopped early
	// after exhausting its failure budget. The tallies cover only the
	// experiments that ran; resume from the saved checkpoint to complete
	// the study.
	Partial bool
}

// specsFromTrace derives the accelerator-level layer descriptions of a
// network from one traced inference — the workload input of Fig 3.
func specsFromTrace(w *model.Workload, execs []nn.SiteExecution) ([]accel.LayerSpec, error) {
	var specs []accel.LayerSpec
	for i, e := range execs {
		name := fmt.Sprintf("%s#%d", e.Site.Name(), e.Visit)
		switch s := e.Site.(type) {
		case *nn.Conv2D:
			os := e.OutShape
			inC := s.InC
			if s.Depthwise {
				inC = 1 // one filter per channel: reduction is the kernel window
			}
			specs = append(specs, accel.ConvSpec(name, os[0], os[1], os[2], os[3],
				s.KH, s.KW, inC, s.Stride, w.Net.Precision))
		case *nn.Dense:
			specs = append(specs, accel.FCSpec(name, e.InShape[0], s.In, s.Out, w.Net.Precision))
		case *nn.MatMulSite:
			m, k := e.InShape[0], e.InShape[1]
			n := e.OutShape[1]
			specs = append(specs, accel.MatMulSpec(name, m, k, n, w.Net.Precision))
		default:
			return nil, fmt.Errorf("campaign: execution %d has unsupported site type %T", i, e.Site)
		}
	}
	return specs, nil
}

// shardState is one run of one logical shard, owned by the goroutine that
// runs it. st is the shard's checkpoint as of its latest experiment boundary —
// the tallies, cursor, round state and quarantine list the loop updates in
// place — and is what Run returns and clones for OnProgress.
type shardState struct {
	index int
	seed  int64

	// Campaign bindings, set once before the run starts.
	runner *ShardRunner
	opts   StudyOptions

	// inj is the replay executor (injector, sampler, arena, replay context)
	// borrowed from the runner for the run and given back when it returns. A
	// watchdog kill abandons it to the wedged experiment goroutine instead, so
	// it is never lent again, and the run borrows another.
	inj      *inject.Injector
	inputIdx int

	st          ShardCheckpoint
	quarantined map[Cursor]bool
	failures    int            // quarantines charged to this run's failure budget
	window      []windowEntry  // runWindow's entries, kept across windows
	order       []*windowEntry // and their execution order

	// progress receives a clone of st at the first experiment boundary at or
	// after due, which then moves interval on; nil streams nothing.
	progress func(ShardCheckpoint)
	interval time.Duration
	due      time.Time
}

// ErrShardExhausted aborts a shard's run after its failure budget is spent:
// the shard's checkpoint stays consistent and resumable, and a study
// containing such a shard degrades to a partial result instead of failing.
// RunShard surfaces it so distributed workers can report a degraded (rather
// than completed or failed) shard to their coordinator.
var ErrShardExhausted = errors.New("campaign: shard failure budget exhausted")

// newState returns the state run starts from: its Resume checkpoint, cloned so
// the caller's copy is never written, or the shard's canonical empty state.
func (r *ShardRunner) newState(run ShardRun) *shardState {
	sh := &shardState{
		index:  run.Index,
		seed:   shardSeed(r.opts.Seed, run.Index),
		runner: r,
		opts:   r.opts,
		st:     NewShardCheckpoint(run.Index),
	}
	if run.Resume != nil {
		sh.st = run.Resume.clone()
	}
	sh.quarantined = make(map[Cursor]bool, len(sh.st.Quarantine))
	for _, q := range sh.st.Quarantine {
		sh.quarantined[q.Cursor] = true
	}
	if run.OnProgress != nil && run.Interval > 0 {
		//lint:allow wallclock liveness: when progress is next streamed, never what a shard computes
		sh.progress, sh.interval, sh.due = run.OnProgress, run.Interval, time.Now().Add(run.Interval)
	}
	return sh
}

// clone returns a deep copy of sc whose tally maps hold every fault model —
// zero where sc has none — so the copy shares nothing with sc and a run can
// tally into it directly.
func (sc ShardCheckpoint) clone() ShardCheckpoint {
	c := sc
	c.Masked = cloneTallies(sc.Masked)
	c.PerLayer = cloneLayers(sc.PerLayer)
	c.Quarantine = slices.Clone(sc.Quarantine)
	if a := sc.Adaptive; a != nil {
		c.Adaptive = &AdaptiveShardState{Round: a.Round, History: CloneHistory(a.History), Final: a.Final}
	}
	return c
}

// cloneTallies returns a tally map holding every fault model, copied from m.
func cloneTallies(m map[faultmodel.ID]Proportion) map[faultmodel.ID]Proportion {
	ids := faultmodel.AllIDs()
	out := make(map[faultmodel.ID]Proportion, len(ids))
	for _, id := range ids {
		out[id] = m[id]
	}
	return out
}

// cloneLayers applies cloneTallies to every layer execution's map,
// preserving nil.
func cloneLayers(layers []map[faultmodel.ID]Proportion) []map[faultmodel.ID]Proportion {
	if layers == nil {
		return nil
	}
	out := make([]map[faultmodel.ID]Proportion, len(layers))
	for e, m := range layers {
		out[e] = cloneTallies(m)
	}
	return out
}

// newTallies returns a tally map with every fault model present and zero.
func newTallies() map[faultmodel.ID]*Proportion {
	m := make(map[faultmodel.ID]*Proportion, len(faultmodel.AllIDs()))
	for _, id := range faultmodel.AllIDs() {
		m[id] = &Proportion{}
	}
	return m
}

// newLayerTallies returns one zeroed tally map per layer execution.
func newLayerTallies(nexec int) []map[faultmodel.ID]*Proportion {
	out := make([]map[faultmodel.ID]*Proportion, nexec)
	for e := range out {
		out[e] = newTallies()
	}
	return out
}

// boundary pauses at an experiment boundary: the cursor's experiment is the
// next to run, ctx is checked, and progress is streamed when it is due.
func (sh *shardState) boundary(ctx context.Context, cur Cursor) error {
	sh.st.Cursor = cur
	if err := ctx.Err(); err != nil {
		return err
	}
	if sh.progress != nil {
		//lint:allow wallclock liveness: when progress is next streamed, never what a shard computes
		if now := time.Now(); !now.Before(sh.due) {
			sh.due = now.Add(sh.interval)
			sh.progress(sh.st.clone())
		}
	}
	return nil
}

// tally adds one trial to id's proportion in m.
func tally(m map[faultmodel.ID]Proportion, id faultmodel.ID, success bool) {
	p := m[id]
	p.Add(success)
	m[id] = p
}

// record tallies one completed experiment.
func (sh *shardState) record(layer int, id faultmodel.ID, r inject.Result) {
	st := &sh.st
	st.Experiments++
	masked := r.Outcome == inject.Masked
	tally(st.Masked, id, masked)
	if layer >= 0 && st.PerLayer != nil {
		tally(st.PerLayer[layer], id, masked)
	}
	if r.FaultyNeurons == 1 {
		failed := !masked
		if r.MaxPerturbation <= 100 {
			st.Perturb.SmallFail.Add(failed)
		} else {
			st.Perturb.LargeFail.Add(failed)
		}
	}
	if tel := sh.opts.Telemetry; tel != nil {
		tel.RecordExperiment(id.String(), r.Outcome.String())
		if r.Replayed {
			tel.RecordReplay(r.Replay.Skipped, r.Replay.Recomputed, r.Replay.RegionSwept,
				r.Replay.ArenaReuses, r.Replay.MACsAvoided)
		}
		if r.Harden != (nn.HardenStats{}) {
			tel.RecordHarden(r.Harden.ClampApplications, r.Harden.Saturated)
		}
	}
}

// setInput points the shard's executor at input idx.
func (sh *shardState) setInput(idx int) error {
	sh.inputIdx = idx
	if sh.inj == nil {
		return sh.ensureInjector()
	}
	return sh.prepare(sh.inj)
}

// prepare points inj at the shard's current input from the run's shared
// golden cache, so all shards reuse one sampled input and one recorded trace
// per input instead of re-running the golden inference sixteen times.
func (sh *shardState) prepare(inj *inject.Injector) error {
	g, err := sh.runner.golden.get(sh.runner.w, sh.inputIdx, !sh.opts.oracle)
	if err != nil {
		return err
	}
	return inj.PrepareGolden(g)
}

// ensureInjector borrows an executor from the runner when the shard holds
// none — at the start of a run, or after a watchdog kill abandoned the last
// one to a wedged goroutine — and prepares it for the current input.
func (sh *shardState) ensureInjector() error {
	if sh.inj != nil {
		return nil
	}
	inj, err := sh.runner.borrow()
	if err != nil {
		return err
	}
	sh.inj = inj
	return sh.prepare(inj)
}

// quarantineExperiment removes the experiment at cur from the campaign after
// a framework failure, recording it for the checkpoint and telemetry.
func (sh *shardState) quarantineExperiment(cur Cursor, id faultmodel.ID, ff *frameworkFault) {
	sh.st.Quarantine = append(sh.st.Quarantine, QuarantinedExperiment{
		Shard: sh.index, Cursor: cur, Model: id.String(),
		Reason: ff.reason, Detail: ff.detail,
	})
	sh.quarantined[cur] = true
	sh.failures++
	if tel := sh.opts.Telemetry; tel != nil {
		tel.RecordExperiment(id.String(), inject.FrameworkFault.String())
		tel.RecordQuarantine(sh.index, ff.reason)
		tel.SetShardBudget(sh.index, sh.failures, sh.opts.failureBudget(), false)
	}
}

// attempt executes the experiment at cur inside the recovery boundary,
// under the watchdog when a deadline is configured. A non-nil frameworkFault
// means the experiment must be quarantined; err is reserved for campaign
// failures (cancellation, invalid configuration).
func (sh *shardState) attempt(ctx context.Context, cur Cursor, id faultmodel.ID, execIdx int) (inject.Result, *frameworkFault, error) {
	if err := sh.ensureInjector(); err != nil {
		return inject.Result{}, nil, err
	}
	sh.inj.Sampler.Reseed(experimentSeed(sh.seed, cur))
	timeout := sh.opts.ExperimentTimeout
	if timeout <= 0 {
		return sh.experiment(ctx, sh.inj, cur, id, execIdx)
	}
	// The watchdog runs the experiment on a goroutine of its own, on the
	// executor it was handed: on a watchdog kill the shard abandons inj to
	// the zombie goroutine and continues on another, so they never race, and
	// the rest of what it reads of sh never changes.
	inj := sh.inj
	type outcome struct {
		r   inject.Result
		ff  *frameworkFault
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, ff, err := sh.experiment(ctx, inj, cur, id, execIdx)
		ch <- outcome{r, ff, err}
	}()
	timer := sh.opts.chaos.newTimer(sh.index, cur, timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.r, o.ff, o.err
	case <-timer.C:
		// The experiment goroutine may be wedged, and Go cannot kill it:
		// abandon its executor — never given back to the runner — so the
		// shard continues on another without racing the zombie, and let it
		// exit into the buffered channel whenever (if ever) it completes.
		sh.inj = nil
		return inject.Result{}, &frameworkFault{
			reason: ReasonTimeout,
			detail: fmt.Sprintf("exceeded %v", timeout),
		}, nil
	}
}

// experiment runs the experiment at cur on inj inside the recovery boundary:
// a panic comes back as a frameworkFault.
func (sh *shardState) experiment(ctx context.Context, inj *inject.Injector, cur Cursor, id faultmodel.ID, execIdx int) (r inject.Result, ff *frameworkFault, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = inject.Result{}, nil
			ff = &frameworkFault{reason: ReasonPanic, detail: fmt.Sprint(p)}
		}
	}()
	if c := sh.opts.chaos; c != nil && c.experiment != nil {
		c.experiment(sh.index, cur)
	}
	if execIdx >= 0 {
		r, err = inj.RunAt(ctx, execIdx, id, sh.opts.Tolerance)
	} else {
		r, err = inj.Run(ctx, id, sh.opts.Tolerance)
	}
	return r, nil, err
}

// windowEntry is one experiment of a supervised window.
type windowEntry struct {
	cur   Cursor
	exec  int  // predicted target execution: the grouping key of flat windows
	skip  bool // quarantined on a previous run: no attempt, no commit
	r     inject.Result
	fault *frameworkFault
}

// runWindow supervises a window of n consecutive experiments of one sample
// loop starting at *cur, whose sample indices step by stride (1 in
// fixed-count campaigns; adaptive campaigns run one input lane at a time,
// whose samples are Inputs apart). It is the shard loop's only execution
// primitive: checkpoint boundary, quarantine skip, recovery boundary and
// failure-budget accounting exist here once.
//
// execIdx >= 0 pins every experiment to that layer execution (per-layer
// strata). Flat windows (execIdx < 0) are pre-drawn — each target is
// predicted from its cursor-derived stream without touching the live sampler
// — stable-sorted by target execution so same-site experiments run back to
// back against one golden prefix and a warm arena working set, and executed
// in that grouped order. Global-control experiments classify without a
// forward pass and never draw a target, so they have nothing to group.
//
// Shard state mutates only in the commit phase, in cursor order — so tallies,
// quarantine lists, failure-budget accounting and streamed checkpoints evolve
// exactly as n one-experiment windows would, and an error mid-execution
// discards the partial window and leaves the shard at the window-start
// boundary. On success *cur, and the shard's cursor, advance past the window.
func (sh *shardState) runWindow(ctx context.Context, cur *Cursor, id faultmodel.ID, execIdx, n, stride int) error {
	start := *cur
	abort := func(err error) error {
		sh.st.Cursor = start
		return err
	}
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	if err := sh.ensureInjector(); err != nil {
		return abort(err)
	}

	if cap(sh.window) < n {
		sh.window = make([]windowEntry, n)
	}
	entries, order := sh.window[:n], sh.order[:0]
	grouped := execIdx < 0 && id != faultmodel.GlobalControl
	for i := range entries {
		c := start
		c.Sample += i * stride
		entries[i] = windowEntry{cur: c}
		if sh.quarantined[c] {
			// Quarantined on a previous run: skip bit-identically. Experiment
			// streams are cursor-derived, so no draws need replaying.
			entries[i].skip = true
			continue
		}
		if grouped {
			// Prediction replays the first draw of the experiment's own
			// cursor-derived stream, so grouping cannot change any value the
			// experiment will draw.
			entries[i].exec = sh.inj.PredictTarget(experimentSeed(sh.seed, c))
		}
		order = append(order, &entries[i])
	}
	sh.order = order
	if grouped {
		slices.SortStableFunc(order, func(a, b *windowEntry) int { return cmp.Compare(a.exec, b.exec) })
	}

	// Execution phase: results are buffered, nothing is committed yet.
	for _, e := range order {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		r, fault, err := sh.attempt(ctx, e.cur, id, execIdx)
		if err != nil {
			return abort(err)
		}
		e.r, e.fault = r, fault
	}
	if tel := sh.opts.Telemetry; tel != nil && grouped && len(order) > 0 {
		groups := 1
		for i := 1; i < len(order); i++ {
			if order[i].exec != order[i-1].exec {
				groups++
			}
		}
		tel.RecordBatch(groups, len(order))
	}

	// Commit phase, cursor order, including progress streaming and the
	// failure-budget stop point (results past an exhausting cursor are
	// discarded, exactly as a one-at-a-time shard would never have run them).
	for i := range entries {
		e := &entries[i]
		if err := sh.boundary(ctx, e.cur); err != nil {
			return err
		}
		if e.skip {
			continue
		}
		if e.fault == nil {
			if sh.opts.observe != nil {
				sh.opts.observe(sh.index, e.cur, id, e.r)
			}
			sh.record(execIdx, id, e.r)
			continue
		}
		sh.quarantineExperiment(e.cur, id, e.fault)
		if b := sh.opts.failureBudget(); b >= 0 && sh.failures > b {
			if tel := sh.opts.Telemetry; tel != nil {
				tel.SetShardBudget(sh.index, sh.failures, b, true)
			}
			return ErrShardExhausted
		}
	}
	cur.Sample += n * stride
	sh.st.Cursor = *cur
	return nil
}

// runSamples runs the sample loop [cur.Sample, hi) of one (input, fault
// model[, layer]) cell, stepping by stride, window by window.
func (sh *shardState) runSamples(ctx context.Context, cur *Cursor, id faultmodel.ID, execIdx, hi, stride int) error {
	for cur.Sample < hi {
		n := min(ceilDiv(hi-cur.Sample, stride), sh.opts.windowSize())
		if err := sh.runWindow(ctx, cur, id, execIdx, n, stride); err != nil {
			return err
		}
	}
	return nil
}

// run executes the shard's slice of the experiment space from its cursor.
// On context cancellation it stops at an experiment boundary and returns the
// context's error; ErrShardExhausted degrades the shard; any other error is
// a campaign failure. Adaptive campaigns may also return nil with the shard
// not done: parked at a round barrier, waiting for the Schedule's planner.
//
// The shard runs on an executor borrowed from the runner, given back on
// return, so a worker that runs shard after shard keeps one warm arena.
func (sh *shardState) run(ctx context.Context) error {
	defer func() {
		sh.runner.giveBack(sh.inj)
		sh.inj = nil
	}()
	if sh.opts.TargetCI > 0 {
		return sh.runAdaptive(ctx)
	}
	return sh.runFixed(ctx)
}

// runFixed is the fixed-count (Samples) campaign loop.
func (sh *shardState) runFixed(ctx context.Context) error {
	opts := sh.opts
	shards := opts.shards()
	ids := faultmodel.AllIDs()
	cur := sh.st.Cursor

	for ; cur.Input < opts.Inputs; cur.Input, cur.Model = cur.Input+1, 0 {
		if err := sh.setInput(cur.Input); err != nil {
			return err
		}
		// The execution count is a function of the input alone, so it stays
		// valid when a watchdog kill swaps the executor.
		nexec := sh.inj.Executions()
		// This shard's share of the per-(input, model) sample count.
		per := opts.Samples / opts.Inputs
		if cur.Input < opts.Samples%opts.Inputs {
			per++
		}
		mine := per / shards
		if sh.index < per%shards {
			mine++
		}
		if opts.PerLayer && sh.st.PerLayer == nil {
			sh.st.PerLayer = cloneLayers(make([]map[faultmodel.ID]Proportion, nexec))
		}
		for ; cur.Model < len(ids); cur.Model, cur.Exec, cur.Sample = cur.Model+1, 0, 0 {
			id := ids[cur.Model]
			// Global-control faults are modeled as always failing and never
			// pinned to a layer, so they take the flat loop in both modes.
			if !opts.PerLayer || id == faultmodel.GlobalControl {
				if err := sh.runSamples(ctx, &cur, id, -1, mine, 1); err != nil {
					return err
				}
				continue
			}
			for ; cur.Exec < nexec; cur.Exec, cur.Sample = cur.Exec+1, 0 {
				if err := sh.runSamples(ctx, &cur, id, cur.Exec, mine, 1); err != nil {
					return err
				}
			}
		}
	}
	sh.st.Done, sh.st.Cursor = true, Cursor{Input: opts.Inputs}
	return nil
}

// runSchedule drives sched over the in-process, function-call transport. This
// goroutine owns sched and sends each granted shard, resumed from its
// schedule checkpoint, down a jobs channel to worker goroutines that run it
// through r.Run — the call a fleet worker makes per lease — on an executor
// borrowed from r, so one warm arena per worker serves every shard, input and
// round. Workers send back what Run streams and what it returns: a streamed
// checkpoint is recorded as the shard's progress, a cancelled run's cut is
// recorded and its shard released, and every other run is reported, which may
// run the round barrier. With a positive every, running shards stream
// progress and save is called that often. Cancellation stops granting, and
// the first campaign failure stops granting and is returned once every
// running shard has come back.
func (r *ShardRunner) runSchedule(ctx context.Context, sched *Schedule, workers int, every time.Duration, save func()) error {
	type message struct {
		i        int
		sc       ShardCheckpoint
		err      error
		streamed bool // an OnProgress checkpoint of a run still going
	}
	jobs := make(chan ShardRun)
	msgs := make(chan message)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range jobs {
				sc, err := r.Run(ctx, run)
				msgs <- message{i: run.Index, sc: sc, err: err}
			}
		}()
	}
	defer func() { close(jobs); wg.Wait() }()
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}

	var failure error
	for running := 0; ; {
		// A worker is idle whenever fewer shards than workers are running, so
		// the send cannot block.
		for ; running < workers && failure == nil && ctx.Err() == nil; running++ {
			i, ok := sched.Grant()
			if !ok {
				break
			}
			jobs <- ShardRun{Index: i, Resume: sched.Checkpoint(i), Interval: every,
				OnProgress: func(sc ShardCheckpoint) { msgs <- message{i: i, sc: sc, streamed: true} }}
		}
		if running == 0 {
			return failure
		}
		var m message
		select {
		case <-tick:
			save()
			continue
		case m = <-msgs:
		}
		if m.streamed {
			sched.Progress(m.i, m.sc)
			continue
		}
		running--
		if isCancellation(m.err) {
			sched.Progress(m.i, m.sc)
			sched.Release(m.i)
			continue
		}
		exhausted := errors.Is(m.err, ErrShardExhausted)
		sched.Report(m.i, m.sc, exhausted)
		if m.err != nil && !exhausted && failure == nil {
			failure = m.err
		}
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func phaseStart(tel *telemetry.Collector, name string) {
	if tel != nil {
		tel.StartPhase(name)
	}
}

func phaseEnd(tel *telemetry.Collector, name string) {
	if tel != nil {
		tel.EndPhase(name)
	}
}

// Study runs the fault-injection study for one workload on design cfg and
// computes its Accelerator_FIT_rate.
//
// The campaign is cancellable, resumable and observable: cancelling ctx
// stops every worker at an experiment boundary and returns *Interrupted
// carrying a checkpoint (also saved to opts.CheckpointPath when set) from
// which opts.Resume continues the study to the identical StudyResult an
// uninterrupted run would have produced.
func Study(ctx context.Context, cfg *accel.Config, w *model.Workload, opts StudyOptions) (*StudyResult, error) {
	// All shards of this run share one derivation of the fault models, one
	// golden trace per input and the workers' executors.
	runner, err := NewShardRunner(cfg, w, opts)
	if err != nil {
		return nil, err
	}
	return runner.study(ctx, cfg)
}

// study runs every shard of r's campaign on cfg in process: Study's body.
func (r *ShardRunner) study(ctx context.Context, cfg *accel.Config) (*StudyResult, error) {
	w, opts := r.w, r.opts
	tel := opts.Telemetry

	// The Eq. 2 layer specs come from input 0's golden trace, which the
	// shards replay against anyway: the run's cache records it once.
	phaseStart(tel, "trace")
	g0, err := r.golden.get(w, 0, !opts.oracle)
	phaseEnd(tel, "trace")
	if err != nil {
		return nil, err
	}
	execs := g0.Executions()

	// The logical shards' schedule, restored from a matching checkpoint. The
	// schedule may heal or advance what it restored; shards resume from its
	// checkpoints.
	shards := opts.shards()
	var restored []*ShardCheckpoint
	if resume := opts.Resume; resume.Matches(cfg, w, opts) {
		restored = make([]*ShardCheckpoint, shards)
		for s := range restored {
			restored[s] = &resume.Shard[s]
		}
	}
	sched := NewSchedule(StrataFor(opts.PerLayer, len(execs)), opts, restored, nil)

	// Periodic checkpoint saves: the schedule's checkpoints, running shards as
	// of their latest streamed progress.
	saveEvery := opts.CheckpointInterval
	if opts.CheckpointPath == "" {
		saveEvery = 0
	}
	save := func() {
		// Best-effort: a failed periodic save must not kill the campaign;
		// the on-cancel save reports errors.
		_ = saveCheckpoint(NewCheckpoint(cfg, w, opts, sched.Checkpoints()), opts.CheckpointPath, opts)
	}

	// Worker pool: workers pull whole logical shards, so the partition of
	// experiments onto random streams never depends on the worker count.
	workers := opts.Workers
	if workers <= 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	phaseStart(tel, "inject")
	tilesBase := nn.TileCount()
	err = r.runSchedule(ctx, sched, workers, saveEvery, save)
	phaseEnd(tel, "inject")
	if tel != nil {
		// Tile counts are process-wide; the delta attributes this study's
		// inject phase (approximate when studies run concurrently).
		tel.AddKernelTiles(nn.TileCount() - tilesBase)
	}
	if err != nil {
		return nil, err
	}

	if !sched.Finished() {
		cp := NewCheckpoint(cfg, w, opts, sched.Checkpoints())
		path := ""
		if opts.CheckpointPath != "" {
			if err := saveCheckpoint(cp, opts.CheckpointPath, opts); err != nil {
				return nil, fmt.Errorf("campaign: interrupted, and saving the checkpoint failed: %w", err)
			}
			path = opts.CheckpointPath
		}
		return nil, &Interrupted{Checkpoint: cp, Path: path, Cause: context.Cause(ctx)}
	}
	// Assemble the result from the shards' terminal checkpoints — the
	// identical code path a distributed coordinator runs on the checkpoints
	// it collected from remote workers, so an in-process study and a fabric
	// run with the same (Seed, Shards) produce byte-identical StudyResult
	// JSON. assembleResult derives Partial from the non-done shards.
	finals := sched.Checkpoints()
	partial := slices.ContainsFunc(finals, func(sc ShardCheckpoint) bool { return !sc.Done })
	if partial && opts.CheckpointPath != "" {
		// Best-effort: the partial result is flagged either way, and the
		// checkpoint lets a later run (with the failure fixed) complete it.
		_ = saveCheckpoint(NewCheckpoint(cfg, w, opts, finals), opts.CheckpointPath, opts)
	}
	return assembleResult(cfg, w, opts, finals, execs, r.models)
}

// SensitivityBounds recomputes the FIT rate under perturbed estimates: the
// FF count scaled by ±ffDelta and every Prob_inactive scaled by ±actDelta
// (clamped to [0, 1]). This is the paper's sensitivity-analysis mode for
// early design phases, where the microarchitectural inputs are estimates:
// the bounds bracket the FIT rate without re-running any injections.
func SensitivityBounds(ctx context.Context, cfg *accel.Config, res *StudyResult, ffDelta, actDelta float64) (lo, hi float64, err error) {
	if res.Layers == nil {
		return 0, 0, fmt.Errorf("campaign: study result carries no layer stats")
	}
	if ffDelta < 0 || ffDelta >= 1 || actDelta < 0 || actDelta > 1 {
		return 0, 0, fmt.Errorf("campaign: deltas out of range (ff=%v, act=%v)", ffDelta, actDelta)
	}
	eval := func(ffScale, actScale float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c := *cfg
		c.NumFFs = int(float64(cfg.NumFFs) * ffScale)
		if c.NumFFs < 1 {
			c.NumFFs = 1
		}
		layers := make([]fit.LayerStats, len(res.Layers))
		for i, l := range res.Layers {
			m := fit.LayerStats{
				Layer: l.Layer, ExecTime: l.ExecTime,
				ProbInactive: map[accel.Category]float64{},
				ProbMasked:   l.ProbMasked,
			}
			for cat, p := range l.ProbInactive {
				p *= actScale
				if p > 1 {
					p = 1
				}
				m.ProbInactive[cat] = p
			}
			layers[i] = m
		}
		r, err := fit.Compute(&c, res.RawPerFF, layers)
		if err != nil {
			return 0, err
		}
		return r.Total, nil
	}
	// Worst case: more FFs, less inactivity. Best case: the opposite.
	hi, err = eval(1+ffDelta, 1-actDelta)
	if err != nil {
		return 0, 0, err
	}
	lo, err = eval(1-ffDelta, 1+actDelta)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
