package campaign

// The per-shard entry points of the campaign engine, exported so a
// distributed fabric (internal/distrib) can relocate shards onto remote
// workers. A logical shard is a perfectly relocatable unit of work: its
// experiment stream is derived from (Seed, Shards, cursor) alone, its
// resumable state is one ShardCheckpoint, and ShardRunner + AssembleResult are
// the exact code paths the in-process Study uses — so a campaign fanned out
// over any number of workers, with any pattern of lease expiries and
// re-runs, assembles a StudyResult byte-identical to a single-process run.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/activeness"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
)

// ShardRun configures one ShardRunner.Run call.
type ShardRun struct {
	// Index is the logical shard to execute, in [0, opts.shards()).
	Index int
	// Resume, when non-nil, is a checkpoint of this shard that an earlier run
	// returned or streamed; execution continues bit-identically from its
	// cursor, and Resume itself is never written. The caller is responsible
	// for campaign-identity matching (a coordinator checks the enclosing
	// Checkpoint.Matches before handing shards out).
	Resume *ShardCheckpoint
	// OnProgress, when non-nil, receives a copy of the shard's checkpoint at
	// the first experiment boundary after each Interval, on the goroutine
	// running the shard: the shard waits while it runs, and a context it
	// cancels stops the shard at the next boundary. The terminal state is
	// Run's return value, not a call.
	OnProgress func(ShardCheckpoint)
	// Interval is the OnProgress streaming cadence (0 = never).
	Interval time.Duration
}

// ShardRunner is the campaign state every shard run in one process shares:
// the validated options, the derived fault models, one recorded golden trace
// per input, and the idle replay executors. A process that runs many shards
// — Study's worker pool, a distrib worker across all its leases — builds one
// and derives and traces once, not once per shard, and keeps one warm
// executor per goroutine that runs shards. Run may be called from several
// goroutines.
type ShardRunner struct {
	w      *model.Workload
	models []faultmodel.Model
	opts   StudyOptions
	// golden shares one recorded golden trace per input across every shard
	// of the run (the trace is immutable during replay, so sharing is safe).
	golden goldenCache

	// idle holds the executors no shard run holds. An executor carries no
	// shard identity — attempt reseeds its sampler from the experiment's
	// cursor before every experiment, and PredictTarget draws from a stream
	// of its own — so any shard may run on any of them.
	mu   sync.Mutex
	idle []*inject.Injector
}

// NewShardRunner validates opts and derives the fault models of cfg for the
// campaign defined by (cfg, w, opts).
func NewShardRunner(cfg *accel.Config, w *model.Workload, opts StudyOptions) (*ShardRunner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	return &ShardRunner{w: w, models: models, opts: opts}, nil
}

// borrow lends an idle executor, or builds one when none is idle.
func (r *ShardRunner) borrow() (*inject.Injector, error) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		inj := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return inj, nil
	}
	r.mu.Unlock()
	s, err := faultmodel.NewSampler(r.models, r.opts.Seed)
	if err != nil {
		return nil, err
	}
	return inject.New(r.w, s), nil
}

// giveBack returns a borrowed executor to the idle list; nil is ignored.
func (r *ShardRunner) giveBack(inj *inject.Injector) {
	if inj == nil {
		return
	}
	r.mu.Lock()
	r.idle = append(r.idle, inj)
	r.mu.Unlock()
}

// RunShard is the one-shot form of NewShardRunner + Run, for a caller that
// executes a single shard of the campaign.
func RunShard(ctx context.Context, cfg *accel.Config, w *model.Workload, opts StudyOptions, run ShardRun) (ShardCheckpoint, error) {
	r, err := NewShardRunner(cfg, w, opts)
	if err != nil {
		return ShardCheckpoint{}, err
	}
	return r.Run(ctx, run)
}

// Run executes one logical shard of the runner's campaign and returns its
// checkpoint as the run left it. It is the one way a shard executes: Study's
// workers call it for each shard they are granted, a fleet worker for each
// lease. The contract:
//
//   - nil error: the shard completed every experiment (checkpoint.Done).
//   - ErrShardExhausted: the shard spent its failure budget and degraded;
//     the checkpoint is consistent and resumable.
//   - a context error: the run was cancelled at an experiment boundary; the
//     checkpoint is consistent and resumable.
//   - any other error: a campaign failure (bad configuration, dataset error);
//     the checkpoint carries the shard's state at the failure boundary.
//
// Adaptive campaigns (opts.TargetCI > 0) add one terminal form: a nil error
// with a checkpoint that is not Done but parked — the shard executed every
// round its checkpoint records and is waiting at the round barrier for the
// Schedule's planner to extend its History or finalize it.
func (r *ShardRunner) Run(ctx context.Context, run ShardRun) (ShardCheckpoint, error) {
	shards := r.opts.shards()
	if run.Index < 0 || run.Index >= shards {
		return ShardCheckpoint{}, fmt.Errorf("campaign: shard index %d out of range [0, %d)", run.Index, shards)
	}
	if run.Resume != nil && run.Resume.Index != run.Index {
		return ShardCheckpoint{}, fmt.Errorf("campaign: resume checkpoint is for shard %d, not %d", run.Resume.Index, run.Index)
	}
	sh := r.newState(run)
	if sh.st.Done {
		return sh.st, nil
	}
	err := sh.run(ctx)
	return sh.st, err
}

// AssembleResult computes the StudyResult of a campaign from its terminal
// per-shard checkpoints — one entry per logical shard, in index order, each
// either completed (Done) or degraded by an exhausted failure budget (not
// Done; the result is flagged Partial). It is the same assembly an
// in-process Study performs on its schedule's terminal checkpoints, so a
// coordinator that collected checkpoints from remote workers produces a
// byte-identical StudyResult.
func AssembleResult(cfg *accel.Config, w *model.Workload, opts StudyOptions, shards []ShardCheckpoint) (*StudyResult, error) {
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	tel := opts.Telemetry
	phaseStart(tel, "trace")
	x0, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		phaseEnd(tel, "trace")
		return nil, err
	}
	_, execs := w.Net.Trace(x0)
	phaseEnd(tel, "trace")
	return assembleResult(cfg, w, opts, shards, execs, models)
}

// assembleResult aggregates terminal shard checkpoints and computes the
// Eq. 2 FIT rates. Integer tally sums commute, so the aggregate is
// independent of both worker scheduling and shard order; every downstream
// number is a pure function of the tallies.
func assembleResult(cfg *accel.Config, w *model.Workload, opts StudyOptions, shards []ShardCheckpoint,
	execs []nn.SiteExecution, models []faultmodel.Model) (*StudyResult, error) {
	if n := opts.shards(); len(shards) != n {
		return nil, fmt.Errorf("campaign: assembling %d shard checkpoints, campaign has %d shards", len(shards), n)
	}
	res := &StudyResult{
		Workload:  w.Net.Name(),
		Precision: w.Net.Precision.String(),
		Tolerance: opts.Tolerance,
		Masked:    newTallies(),
	}
	var perLayer []map[faultmodel.ID]*Proportion
	if opts.PerLayer {
		perLayer = newLayerTallies(len(execs))
	}
	for i, sc := range shards {
		if sc.Index != i {
			return nil, fmt.Errorf("campaign: shard checkpoint %d carries index %d", i, sc.Index)
		}
		if !sc.Done {
			// A terminal but not-done shard stopped early after exhausting
			// its failure budget: the campaign degrades to a partial result,
			// exactly as Study flags an ErrShardExhausted shard.
			res.Partial = true
		}
		for id, p := range sc.Masked {
			res.Masked[id].merge(p)
		}
		for e, m := range sc.PerLayer {
			if perLayer == nil || e >= len(perLayer) {
				return nil, fmt.Errorf("campaign: shard %d carries per-layer tallies the campaign options do not", i)
			}
			for id, p := range m {
				perLayer[e][id].merge(p)
			}
		}
		res.Perturb.SmallFail.merge(sc.Perturb.SmallFail)
		res.Perturb.LargeFail.merge(sc.Perturb.LargeFail)
		res.Experiments += sc.Experiments
		res.Quarantined = append(res.Quarantined, sc.Quarantine...)
	}
	sort.Slice(res.Quarantined, func(i, j int) bool {
		a, b := res.Quarantined[i], res.Quarantined[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Cursor.before(b.Cursor)
	})

	// Assemble Eq. 2 inputs: per-layer activeness and exec time from the
	// performance model, masking probabilities from the campaign aggregate.
	tel := opts.Telemetry
	phaseStart(tel, "fit")
	defer phaseEnd(tel, "fit")
	specs, err := specsFromTrace(w, execs)
	if err != nil {
		return nil, err
	}
	perf, err := activeness.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	var layers []fit.LayerStats
	for li, spec := range specs {
		an, err := activeness.Analyze(cfg, perf, spec)
		if err != nil {
			return nil, err
		}
		ls := fit.LayerStats{
			Layer:        spec.Name,
			ExecTime:     float64(an.Breakdown.TotalCycles),
			ProbInactive: an.ProbInactive,
			ProbMasked:   map[accel.Category]float64{},
		}
		for _, m := range models {
			p := res.Masked[m.ID]
			if perLayer != nil && m.ID != faultmodel.GlobalControl {
				if lp := perLayer[li][m.ID]; lp.Trials > 0 {
					p = lp
				}
			}
			ls.ProbMasked[m.Cat] = p.Mean()
		}
		layers = append(layers, ls)
	}
	raw := fit.RawFITPerFF(fit.RawFFFITPerMB)
	res.Layers = layers
	res.RawPerFF = raw
	res.FIT, err = fit.Compute(cfg, raw, layers)
	if err != nil {
		return nil, err
	}
	res.FITProtected, err = fit.ComputeProtected(cfg, raw, layers)
	if err != nil {
		return nil, err
	}
	return res, nil
}
