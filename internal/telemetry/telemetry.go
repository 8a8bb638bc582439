// Package telemetry instruments long-running injection campaigns: lock-free
// experiment and per-fault-model outcome counters, per-phase wall-clock
// timings, and point-in-time snapshots. Campaign workers call
// RecordExperiment from many goroutines; observers (progress emitters, run
// manifests) call Snapshot concurrently without stopping the campaign.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome labels matching inject.Outcome.String(); telemetry stays decoupled
// from the inject package by counting on the string form.
const (
	OutcomeMasked         = "masked"
	OutcomeOutputError    = "output-error"
	OutcomeSystemAnomaly  = "system-anomaly"
	OutcomeFrameworkFault = "framework-fault"
)

// Quarantine reason labels matching the campaign supervisor's.
const (
	ReasonPanic   = "panic"
	ReasonTimeout = "timeout"
)

// Collector aggregates campaign progress. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Collector struct {
	start       time.Time
	source      atomic.Value // string: snapshot attribution label
	experiments atomic.Int64
	models      sync.Map // model name -> *Outcomes

	mu     sync.Mutex
	phases []*phaseTiming // in first-start order
	byName map[string]*phaseTiming

	// Recovery counters: the supervision layer's record of framework-level
	// failures it survived during the campaign.
	panics, timeouts, ioRetries, quarantined atomic.Int64
	corruptArtifacts                         atomic.Int64
	shardBudgets                             sync.Map // shard index (int) -> *shardBudget

	// Replay counters: the incremental replay engine's cumulative savings.
	replaySkipped, replayRecomputed, replayRegion, replayArena atomic.Int64
	replayMACs                                                 atomic.Uint64 // Float64bits-encoded sum

	// Batch counters: site-grouped experiment batching in the campaign shard
	// loop (batches executed, distinct target-site groups, experiments run
	// through batches).
	batches, batchGroups, batchExps atomic.Int64

	// kernelTiles counts compute-kernel tiles executed by the tiled
	// Conv2D/Dense/MatMul kernels during the campaign's inject phase.
	kernelTiles atomic.Int64

	// Harden counters: range-restriction clamp activity on a hardened
	// network (clamp.go), plus the installed duplicated-site count.
	clampApplications, clampSaturated atomic.Int64
	duplicatedSites                   atomic.Int64

	// strata is the adaptive campaign's latest per-stratum view, replaced
	// wholesale at each shard-barrier round by the planner (SetStrata). Nil
	// for fixed-count campaigns.
	strataMu sync.Mutex
	strata   *StrataSnapshot
}

// Outcomes tallies experiment classifications for one fault model.
type Outcomes struct {
	Masked, OutputError, SystemAnomaly, FrameworkFault, Other atomic.Int64
}

// shardBudget is one shard's live failure-budget state.
type shardBudget struct {
	failures  atomic.Int64
	budget    atomic.Int64
	exhausted atomic.Bool
}

type phaseTiming struct {
	name    string
	total   time.Duration
	started time.Time
	running int
}

// New returns a collector whose elapsed clock starts now.
func New() *Collector {
	return &Collector{start: time.Now(), byName: map[string]*phaseTiming{}}
}

// SetSource labels every snapshot this collector emits with an attribution
// source — "local" for an in-process campaign, a worker ID for a distributed
// worker's stream — so merged coordinator progress streams can tell whose
// counters each line carries.
func (c *Collector) SetSource(source string) { c.source.Store(source) }

// RecordExperiment counts one finished experiment for a fault model with the
// given outcome label. The hot path is atomic-only after the first call per
// model.
func (c *Collector) RecordExperiment(model, outcome string) {
	c.experiments.Add(1)
	v, ok := c.models.Load(model)
	if !ok {
		v, _ = c.models.LoadOrStore(model, &Outcomes{})
	}
	t := v.(*Outcomes)
	switch outcome {
	case OutcomeMasked:
		t.Masked.Add(1)
	case OutcomeOutputError:
		t.OutputError.Add(1)
	case OutcomeSystemAnomaly:
		t.SystemAnomaly.Add(1)
	case OutcomeFrameworkFault:
		t.FrameworkFault.Add(1)
	default:
		t.Other.Add(1)
	}
}

// Experiments returns the total experiments recorded so far.
func (c *Collector) Experiments() int64 { return c.experiments.Load() }

// RecordQuarantine counts one experiment the campaign supervisor removed
// from the study after a framework-level failure. reason is ReasonPanic or
// ReasonTimeout.
func (c *Collector) RecordQuarantine(shard int, reason string) {
	c.quarantined.Add(1)
	switch reason {
	case ReasonPanic:
		c.panics.Add(1)
	case ReasonTimeout:
		c.timeouts.Add(1)
	}
}

// RecordIORetry counts one retried transient I/O failure (checkpoint or
// manifest write).
func (c *Collector) RecordIORetry() { c.ioRetries.Add(1) }

// RecordCorruptArtifact counts one persisted artifact (checkpoint,
// coordinator state) whose content checksum failed verification at load and
// was quarantined instead of trusted. The campaign recovers by re-deriving
// the state (shard determinism makes re-execution safe), so this is a
// survived failure, not a crash — but operators should know their storage
// is eating bits.
func (c *Collector) RecordCorruptArtifact() { c.corruptArtifacts.Add(1) }

// RecordReplay accumulates one experiment's incremental-replay savings:
// layer executions skipped vs. recomputed (and the region-swept subset of the
// recomputes), arena buffer reuses, and the estimated MAC work avoided. Not
// called when replay is disabled, so full-forward snapshots carry no Replay
// block.
func (c *Collector) RecordReplay(skipped, recomputed, regionSwept int, arenaReuses int64, macsAvoided float64) {
	c.replaySkipped.Add(int64(skipped))
	c.replayRecomputed.Add(int64(recomputed))
	c.replayRegion.Add(int64(regionSwept))
	c.replayArena.Add(arenaReuses)
	for {
		old := c.replayMACs.Load()
		next := math.Float64bits(math.Float64frombits(old) + macsAvoided)
		if c.replayMACs.CompareAndSwap(old, next) {
			return
		}
	}
}

// RecordBatch counts one executed experiment batch: groups is the number of
// distinct target-site groups the batch collapsed into, experiments the
// number of experiments it ran.
func (c *Collector) RecordBatch(groups, experiments int) {
	c.batches.Add(1)
	c.batchGroups.Add(int64(groups))
	c.batchExps.Add(int64(experiments))
}

// AddKernelTiles accumulates compute-kernel tile executions (from the tiled
// Conv2D/Dense/MatMul kernels) attributed to this collector's campaign.
func (c *Collector) AddKernelTiles(n int64) { c.kernelTiles.Add(n) }

// RecordHarden accumulates one experiment's range-restriction clamp
// activity: site executions bounds-checked and values saturated back into
// the profiled envelope. Not called for unhardened networks, so their
// snapshots carry no Harden block.
func (c *Collector) RecordHarden(applications, saturated int64) {
	c.clampApplications.Add(applications)
	c.clampSaturated.Add(saturated)
}

// SetDuplicatedSites publishes the number of sites marked for selective
// duplication in the hardening config under study. It is configuration
// state, not a running tally, so merges keep the maximum rather than sum.
func (c *Collector) SetDuplicatedSites(n int) { c.duplicatedSites.Store(int64(n)) }

// SetShardBudget publishes one shard's failure-budget state: quarantines
// charged so far, the budget limit (negative = unlimited), and whether the
// shard stopped after exhausting it.
func (c *Collector) SetShardBudget(shard, failures, budget int, exhausted bool) {
	v, ok := c.shardBudgets.Load(shard)
	if !ok {
		v, _ = c.shardBudgets.LoadOrStore(shard, &shardBudget{})
	}
	b := v.(*shardBudget)
	b.failures.Store(int64(failures))
	b.budget.Store(int64(budget))
	b.exhausted.Store(exhausted)
}

// StartPhase begins (or re-enters) timing a named phase. Phases may be
// entered repeatedly — e.g. one "inject" phase accumulated across the cells
// of a multi-workload figure — and concurrently; the wall clock runs while
// at least one entry is open.
func (c *Collector) StartPhase(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.byName[name]
	if p == nil {
		p = &phaseTiming{name: name}
		c.byName[name] = p
		c.phases = append(c.phases, p)
	}
	if p.running == 0 {
		p.started = time.Now()
	}
	p.running++
}

// EndPhase closes one StartPhase entry, accumulating wall-clock time when
// the last concurrent entry closes. Unbalanced calls are ignored.
func (c *Collector) EndPhase(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.byName[name]
	if p == nil || p.running == 0 {
		return
	}
	p.running--
	if p.running == 0 {
		p.total += time.Since(p.started)
	}
}

// OutcomeCounts is the immutable snapshot form of Outcomes.
type OutcomeCounts struct {
	Masked         int64 `json:"masked"`
	OutputError    int64 `json:"output_error"`
	SystemAnomaly  int64 `json:"system_anomaly"`
	FrameworkFault int64 `json:"framework_fault,omitempty"`
	Other          int64 `json:"other,omitempty"`
}

// ShardBudgetState is one shard's failure-budget snapshot.
type ShardBudgetState struct {
	Shard     int   `json:"shard"`
	Failures  int64 `json:"failures"`
	Budget    int64 `json:"budget"` // negative = unlimited
	Exhausted bool  `json:"exhausted,omitempty"`
}

// RecoverySnapshot reports the supervision layer's recovery counters:
// framework failures survived (and quarantined) rather than crashed on.
type RecoverySnapshot struct {
	Quarantined     int64 `json:"quarantined"`
	PanicsRecovered int64 `json:"panics_recovered"`
	Timeouts        int64 `json:"timeouts"`
	IORetries       int64 `json:"io_retries"`
	// CorruptArtifacts counts persisted artifacts that failed their content
	// checksum at load and were quarantined (state re-derived from scratch).
	CorruptArtifacts int64              `json:"corrupt_artifacts,omitempty"`
	Shards           []ShardBudgetState `json:"shards,omitempty"` // shards with failures, ascending
}

// AuditFailure records one completed shard whose audit re-execution by a
// second worker produced a byte-different checkpoint. Shard determinism
// makes the two executions identical by construction, so a mismatch is
// proof that a worker or the transport corrupted the result — which of the
// two copies is poisoned cannot be decided, so the campaign is flagged
// Partial instead of trusting either.
type AuditFailure struct {
	Shard int `json:"shard"`
	// Worker produced the accepted (primary) checkpoint; AuditWorker the
	// re-execution.
	Worker      string `json:"worker,omitempty"`
	AuditWorker string `json:"audit_worker,omitempty"`
	// Sum and AuditSum are the mismatching content digests.
	Sum      string `json:"sum,omitempty"`
	AuditSum string `json:"audit_sum,omitempty"`
}

// AuditSnapshot reports the coordinator's result-audit pass: how many
// completed shards were deterministically sampled for re-execution by a
// second worker, and how the byte-comparisons came out.
type AuditSnapshot struct {
	// Sampled counts shards selected for audit (a pure function of the
	// campaign seed, the shard index, and the audit fraction).
	Sampled int64 `json:"sampled"`
	// Pending counts sampled shards whose audit has not finished yet.
	Pending int64 `json:"pending,omitempty"`
	// Passed counts audits whose re-executed checkpoint was byte-identical
	// to the accepted one.
	Passed int64 `json:"passed"`
	// Failed counts mismatches; Failures carries their details, ascending
	// by shard.
	Failed   int64          `json:"failed,omitempty"`
	Failures []AuditFailure `json:"failures,omitempty"`
}

// ReplaySnapshot reports the incremental replay engine's cumulative savings
// across all experiments so far.
type ReplaySnapshot struct {
	LayersSkipped    int64 `json:"layers_skipped"`
	LayersRecomputed int64 `json:"layers_recomputed"`
	// RegionSwept is the subset of recomputes served by the dirty-region
	// sweep (only the fault's output box was recomputed).
	RegionSwept int64 `json:"region_swept,omitempty"`
	// CacheHitRatio is skipped / (skipped + recomputed).
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	ArenaReuses    int64   `json:"arena_reuses"`
	MACsAvoidedEst float64 `json:"macs_avoided_est"`
}

// BatchSnapshot reports the campaign shard loop's site-grouped experiment
// batching: how many batch windows ran, how many distinct target-site groups
// they collapsed into, and the experiments routed through them.
type BatchSnapshot struct {
	Batches     int64 `json:"batches"`
	SiteGroups  int64 `json:"site_groups"`
	Experiments int64 `json:"experiments"`
	// AvgGroupSize is experiments / site groups — how many same-site
	// experiments each golden prefix and arena working set was amortized
	// over.
	AvgGroupSize float64 `json:"avg_group_size,omitempty"`
}

// KernelSnapshot reports compute-kernel execution counters.
type KernelSnapshot struct {
	// Tiles counts tiled Conv2D/Dense/MatMul kernel tiles executed.
	Tiles int64 `json:"tiles"`
}

// HardenSnapshot reports a hardened campaign's range-restriction and
// duplication state: cumulative clamp activity plus the configured
// duplicated-site count.
type HardenSnapshot struct {
	// ClampApplications counts site executions whose output was
	// bounds-checked.
	ClampApplications int64 `json:"clamp_applications"`
	// SaturatedValues counts individual values forced back into the
	// profiled envelope (zero on clean data).
	SaturatedValues int64 `json:"saturated_values"`
	// DuplicatedSites is the number of sites marked for selective
	// duplication in the hardening config (configuration state: merged by
	// max, not summed).
	DuplicatedSites int64 `json:"duplicated_sites,omitempty"`
}

// StratumState is one adaptive-sampling stratum's view at a round barrier:
// its merged tally across all shards, the resulting Wilson interval, and
// whether the planner has stopped allocating to it.
type StratumState struct {
	// Model is the fault model's short name; Exec is the execution (layer)
	// index, or -1 for a stratum not split per layer.
	Model     string  `json:"model"`
	Exec      int     `json:"exec"`
	N         int     `json:"n"`
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	Stopped   bool    `json:"stopped,omitempty"`
}

// StrataSnapshot reports an adaptive campaign's per-stratum progress as of
// the most recent shard-barrier round: how many rounds have been planned,
// the target half-width, and every stratum's state in canonical (model-major,
// execution-minor) order.
type StrataSnapshot struct {
	Rounds   int            `json:"rounds"`
	TargetCI float64        `json:"target_ci"`
	Strata   []StratumState `json:"strata"`
}

// SetStrata publishes the adaptive planner's per-stratum state computed at a
// shard-barrier round, replacing any previous snapshot.
func (c *Collector) SetStrata(s StrataSnapshot) {
	c.strataMu.Lock()
	c.strata = &s
	c.strataMu.Unlock()
}

// PhaseSnapshot reports one phase's accumulated wall-clock time.
type PhaseSnapshot struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Running bool    `json:"running,omitempty"`
}

// Snapshot is a point-in-time view of the collector, serializable as one
// JSONL progress line or embedded in a run manifest.
type Snapshot struct {
	// Source attributes the snapshot: "local" for an in-process campaign,
	// a worker ID for a distributed worker, a coordinator label for merged
	// streams. Empty for unattributed (pre-distribution) collectors.
	Source string `json:"source,omitempty"`
	// Sources lists the constituent snapshot sources of a merged snapshot
	// (see Merge), sorted; nil for first-hand snapshots.
	Sources     []string                 `json:"sources,omitempty"`
	ElapsedSec  float64                  `json:"elapsed_sec"`
	Experiments int64                    `json:"experiments"`
	PerSec      float64                  `json:"experiments_per_sec"`
	Models      map[string]OutcomeCounts `json:"models,omitempty"`
	Phases      []PhaseSnapshot          `json:"phases,omitempty"`
	// Recovery is present only when the campaign survived at least one
	// framework failure or retried an I/O operation, so clean-run snapshots
	// are unchanged.
	Recovery *RecoverySnapshot `json:"recovery,omitempty"`
	// Audit is present only on coordinator snapshots of campaigns running a
	// result-audit pass (CoordinatorOptions.AuditFraction > 0).
	Audit *AuditSnapshot `json:"audit,omitempty"`
	// Replay is present only when the incremental replay engine ran (it is
	// omitted for global-control-only runs and on the test-only oracle).
	Replay *ReplaySnapshot `json:"replay,omitempty"`
	// Batch is present only when the campaign ran site-grouped experiment
	// windows (omitted when every window pinned its site, as in per-layer
	// campaigns).
	Batch *BatchSnapshot `json:"batch,omitempty"`
	// Kernels is present only when kernel tile counts were attributed to
	// this collector.
	Kernels *KernelSnapshot `json:"kernels,omitempty"`
	// Harden is present only on hardened campaigns (clamps installed or
	// sites duplicated); unhardened snapshots are unchanged.
	Harden *HardenSnapshot `json:"harden,omitempty"`
	// Strata is present only on adaptive campaigns (StudyOptions.TargetCI >
	// 0): the per-stratum state as of the most recent planning round.
	Strata *StrataSnapshot `json:"strata,omitempty"`
}

// Snapshot captures the current counters. Model keys are sorted into a map
// (deterministic when serialized by encoding/json), phases keep first-start
// order.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		ElapsedSec:  time.Since(c.start).Seconds(),
		Experiments: c.experiments.Load(),
	}
	if src, ok := c.source.Load().(string); ok {
		s.Source = src
	}
	if s.ElapsedSec > 0 {
		s.PerSec = float64(s.Experiments) / s.ElapsedSec
	}
	models := map[string]OutcomeCounts{}
	c.models.Range(func(k, v any) bool {
		t := v.(*Outcomes)
		models[k.(string)] = OutcomeCounts{
			Masked:         t.Masked.Load(),
			OutputError:    t.OutputError.Load(),
			SystemAnomaly:  t.SystemAnomaly.Load(),
			FrameworkFault: t.FrameworkFault.Load(),
			Other:          t.Other.Load(),
		}
		return true
	})
	if len(models) > 0 {
		s.Models = models
	}
	rec := RecoverySnapshot{
		Quarantined:      c.quarantined.Load(),
		PanicsRecovered:  c.panics.Load(),
		Timeouts:         c.timeouts.Load(),
		IORetries:        c.ioRetries.Load(),
		CorruptArtifacts: c.corruptArtifacts.Load(),
	}
	c.shardBudgets.Range(func(k, v any) bool {
		b := v.(*shardBudget)
		rec.Shards = append(rec.Shards, ShardBudgetState{
			Shard:     k.(int),
			Failures:  b.failures.Load(),
			Budget:    b.budget.Load(),
			Exhausted: b.exhausted.Load(),
		})
		return true
	})
	sort.Slice(rec.Shards, func(i, j int) bool { return rec.Shards[i].Shard < rec.Shards[j].Shard })
	if rec.Quarantined > 0 || rec.IORetries > 0 || rec.CorruptArtifacts > 0 || len(rec.Shards) > 0 {
		s.Recovery = &rec
	}
	skipped, recomputed := c.replaySkipped.Load(), c.replayRecomputed.Load()
	if skipped+recomputed > 0 {
		rep := &ReplaySnapshot{
			LayersSkipped:    skipped,
			LayersRecomputed: recomputed,
			RegionSwept:      c.replayRegion.Load(),
			CacheHitRatio:    float64(skipped) / float64(skipped+recomputed),
			ArenaReuses:      c.replayArena.Load(),
			MACsAvoidedEst:   math.Float64frombits(c.replayMACs.Load()),
		}
		s.Replay = rep
	}
	if batches := c.batches.Load(); batches > 0 {
		bs := &BatchSnapshot{
			Batches:     batches,
			SiteGroups:  c.batchGroups.Load(),
			Experiments: c.batchExps.Load(),
		}
		if bs.SiteGroups > 0 {
			bs.AvgGroupSize = float64(bs.Experiments) / float64(bs.SiteGroups)
		}
		s.Batch = bs
	}
	if tiles := c.kernelTiles.Load(); tiles > 0 {
		s.Kernels = &KernelSnapshot{Tiles: tiles}
	}
	apps, sat, dup := c.clampApplications.Load(), c.clampSaturated.Load(), c.duplicatedSites.Load()
	if apps > 0 || sat > 0 || dup > 0 {
		s.Harden = &HardenSnapshot{ClampApplications: apps, SaturatedValues: sat, DuplicatedSites: dup}
	}
	c.strataMu.Lock()
	if st := c.strata; st != nil {
		cp := *st
		cp.Strata = append([]StratumState(nil), st.Strata...)
		s.Strata = &cp
	}
	c.strataMu.Unlock()
	c.mu.Lock()
	for _, p := range c.phases {
		total := p.total
		if p.running > 0 {
			total += time.Since(p.started)
		}
		s.Phases = append(s.Phases, PhaseSnapshot{
			Name: p.name, Seconds: total.Seconds(), Running: p.running > 0,
		})
	}
	c.mu.Unlock()
	return s
}

// RateSince returns the experiments/sec over the window between prev and s,
// for interval (rather than cumulative) progress rates. Returns 0 when the
// window is empty or inverted.
func (s Snapshot) RateSince(prev Snapshot) float64 {
	dt := s.ElapsedSec - prev.ElapsedSec
	if dt <= 0 {
		return 0
	}
	return float64(s.Experiments-prev.Experiments) / dt
}
