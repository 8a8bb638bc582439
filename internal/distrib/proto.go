// Package distrib is the distributed campaign fabric: a coordinator daemon
// that partitions a resilience study into the campaign engine's logical
// shards and hands them to remote workers as time-bounded leases over a
// small JSON/HTTP API, and a worker client that executes leases through a
// campaign.ShardRunner, streams checkpoints and telemetry back, and is handed
// its next lease in the reply to each final report (DESIGN.md §6.1).
//
// Correctness rests entirely on the engine's shard determinism: a shard's
// experiment stream is a pure function of (Seed, Shards, cursor), its
// resumable state is one ShardCheckpoint, and re-running or resuming it
// anywhere reproduces the same tallies bit for bit. Leases are therefore
// safe to re-issue — a worker that vanishes mid-shard costs wall-clock
// time, never correctness — and the assembled StudyResult is byte-identical
// to an in-process campaign.Study with the same parameters, regardless of
// worker count, lease expiries, or coordinator restarts.
//
// Wire protocol (all bodies JSON):
//
//	GET  /v1/campaign -> HelloReply     the campaign spec + accelerator config
//	POST /v1/lease    -> LeaseReply     request a shard lease (wait_ms: long-poll)
//	POST /v1/report   -> ReportReply    stream a checkpoint / heartbeat / final
//	                                    (want_lease: the reply carries the next lease)
//	GET  /v1/status   -> StatusReply    progress, lease table, merged telemetry
//	GET  /v1/result   -> StudyResult    the assembled result (404 until done)
package distrib

import (
	"fmt"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// CampaignSpec fully determines a campaign's experiment space. Everything a
// worker needs to reproduce the coordinator's shards bit-identically is
// here; supervision knobs (timeout, budget) ride along so every worker
// quarantines identically, keeping degraded campaigns deterministic too.
type CampaignSpec struct {
	// Workload and Precision name the network (model.Names) and numeric
	// format; WorkloadSeed seeds its deterministic weights.
	Workload     string `json:"workload"`
	Precision    string `json:"precision"`
	WorkloadSeed int64  `json:"workload_seed"`
	// Campaign identity, exactly the checkpoint's: tolerance, samples,
	// inputs, sampling seed, shard count, per-layer mode.
	Tolerance float64 `json:"tolerance"`
	Samples   int     `json:"samples"`
	// TargetCI switches the campaign to adaptive stratified sampling
	// (campaign.StudyOptions.TargetCI): rounds are planned by the coordinator
	// at shard barriers, so the adaptive identity (Seed, Shards, TargetCI)
	// replaces Samples. Mutually exclusive with Samples; in (0, 0.5].
	TargetCI float64 `json:"target_ci,omitempty"`
	Inputs   int     `json:"inputs"`
	Seed     int64   `json:"seed"`
	Shards   int     `json:"shards"`
	PerLayer bool    `json:"per_layer,omitempty"`
	// Supervision knobs (these DO affect a degraded campaign's quarantine
	// list, so they are part of the spec, not per-worker choices).
	ExperimentTimeout time.Duration `json:"experiment_timeout,omitempty"`
	FailureBudget     int           `json:"failure_budget,omitempty"`
}

// Normalize resolves defaulted fields (shard count, precision) so coordinator
// and workers agree on the concrete campaign.
func (s CampaignSpec) Normalize() CampaignSpec {
	if s.Shards <= 0 {
		s.Shards = campaign.DefaultShards
	}
	if s.Precision == "" {
		s.Precision = numerics.FP16.String()
	}
	return s
}

// Validate rejects specs the campaign engine would misbehave on: the fields
// only a spec has are checked here, the sampling rule (samples / target_ci /
// inputs / shards) is the engine's own StudyOptions.Validate.
func (s CampaignSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("distrib: spec names no workload")
	}
	if _, err := numerics.ParsePrecision(s.Precision); s.Precision != "" && err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	if err := s.Options().Validate(); err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	return nil
}

// Options maps the spec onto the campaign engine's study options. Worker
// count, checkpoint paths and telemetry are deliberately absent: workers own
// their telemetry, and the coordinator owns all persistence.
func (s CampaignSpec) Options() campaign.StudyOptions {
	return campaign.StudyOptions{
		Samples:           s.Samples,
		TargetCI:          s.TargetCI,
		Inputs:            s.Inputs,
		Tolerance:         s.Tolerance,
		Seed:              s.Seed,
		Shards:            s.Shards,
		PerLayer:          s.PerLayer,
		ExperimentTimeout: s.ExperimentTimeout,
		FailureBudget:     s.FailureBudget,
	}
}

// NewCampaignSpec is the inverse of Options: the spec of the campaign that
// runs opts on the workload named by (workload, precision, workloadSeed).
// The options a spec does not carry — workers, checkpointing, resume and
// telemetry — are dropped.
func NewCampaignSpec(workload, precision string, workloadSeed int64, opts campaign.StudyOptions) CampaignSpec {
	return CampaignSpec{
		Workload:          workload,
		Precision:         precision,
		WorkloadSeed:      workloadSeed,
		Tolerance:         opts.Tolerance,
		Samples:           opts.Samples,
		TargetCI:          opts.TargetCI,
		Inputs:            opts.Inputs,
		Seed:              opts.Seed,
		Shards:            opts.Shards,
		PerLayer:          opts.PerLayer,
		ExperimentTimeout: opts.ExperimentTimeout,
		FailureBudget:     opts.FailureBudget,
	}
}

// BuildWorkload constructs the spec's workload. Both sides build it from the
// spec alone, so a worker's network is bit-identical to the coordinator's.
func (s CampaignSpec) BuildWorkload() (*model.Workload, error) {
	prec, err := numerics.ParsePrecision(s.Precision)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	return model.Build(s.Workload, prec, s.WorkloadSeed)
}

// HelloReply answers GET /v1/campaign: the normalized spec plus the full
// accelerator description and its fingerprint, so a worker can verify the
// config decoded losslessly before running anything against it.
type HelloReply struct {
	Spec        CampaignSpec `json:"spec"`
	Config      accel.Config `json:"config"`
	Fingerprint string       `json:"fingerprint"`
}

// campaign is a worker's check of a decoded HelloReply: the config must
// fingerprint to what the coordinator sent (it decoded losslessly) and the
// spec must be one the engine runs. It returns the normalized spec.
func (h *HelloReply) campaign() (CampaignSpec, error) {
	if fp := h.Config.Fingerprint(); fp != h.Fingerprint {
		return CampaignSpec{}, fmt.Errorf("distrib: campaign config decoded with fingerprint %s, coordinator has %s", fp, h.Fingerprint)
	}
	spec := h.Spec.Normalize()
	return spec, spec.Validate()
}

// LeaseRequest asks the coordinator for one shard lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// WaitMS, when positive, lets the coordinator hold the request until a
	// shard becomes available, the campaign finishes or drain starts, for at
	// most min(WaitMS, TTL/4). Absent (old clients) = answer immediately.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// Lease grants one logical shard to one worker until Deadline. The worker
// must report (heartbeat) before the deadline or the coordinator re-leases
// the shard to someone else — at which point this lease's reports are
// rejected and the worker is told to abandon the shard.
type Lease struct {
	ID    string `json:"id"`
	Shard int    `json:"shard"`
	// TTLMS is the heartbeat budget; every accepted report extends the
	// lease by this much.
	TTLMS int64 `json:"ttl_ms"`
	// Resume is the shard's last coordinator-accepted checkpoint (nil =
	// run from scratch). Work a lapsed worker streamed before vanishing is
	// not lost: the next lease continues from it bit-identically.
	Resume *campaign.ShardCheckpoint `json:"resume,omitempty"`
	// Audit marks a verification re-run of an already-completed shard: the
	// worker executes it exactly like a primary lease, and the coordinator
	// byte-compares the resulting checkpoint against the accepted one.
	Audit bool `json:"audit,omitempty"`
}

// LeaseReply answers POST /v1/lease.
type LeaseReply struct {
	// Lease is the granted shard, nil when none is available right now.
	Lease *Lease `json:"lease,omitempty"`
	// Done reports the campaign is finished (or failed); workers should
	// exit their poll loop.
	Done bool `json:"done,omitempty"`
	// RetryAfterMS is the suggested poll delay when no lease was granted;
	// absent when the request was already held for its whole WaitMS.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Draining reports the coordinator is shutting down and refusing new
	// leases; workers should keep polling (a restarted coordinator resumes
	// from persisted state) unless their own context ends first.
	Draining bool `json:"draining,omitempty"`
}

// ReportRequest streams shard state back to the coordinator. Non-final
// reports double as heartbeats; the final report marks the shard terminal
// (completed, or degraded when Exhausted).
type ReportRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	// Shard is a consistent checkpoint of the leased shard: streamed by Run's
	// OnProgress in a heartbeat, returned by Run in a final report.
	Shard campaign.ShardCheckpoint `json:"shard"`
	// Final marks the shard terminal under this lease.
	Final bool `json:"final,omitempty"`
	// Exhausted marks a final report of a shard that spent its failure
	// budget (campaign.ErrShardExhausted): terminal, but degraded.
	Exhausted bool `json:"exhausted,omitempty"`
	// Error reports a terminal campaign failure on the worker (bad
	// configuration, dataset error). The coordinator fails the campaign.
	Error string `json:"error,omitempty"`
	// WantLease asks for the worker's next lease in the reply, saving the
	// separate POST /v1/lease round trip.
	WantLease bool `json:"want_lease,omitempty"`
	// Telemetry is the worker's current collector snapshot, merged into
	// the coordinator's progress stream (attributed by Snapshot.Source).
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// ReportReply answers POST /v1/report.
type ReportReply struct {
	// OK acknowledges the report was accepted against a live lease.
	OK bool `json:"ok"`
	// Cancel tells the worker its lease is no longer valid (it lapsed and
	// the shard moved on): abandon the shard and poll for a new lease.
	Cancel bool `json:"cancel,omitempty"`
	// Done reports the campaign is finished; the worker should exit.
	Done bool `json:"done,omitempty"`
	// Lease is the next lease of a worker that sent WantLease, nil when none
	// is available (or the coordinator is draining): poll /v1/lease.
	Lease *Lease `json:"lease,omitempty"`
}

// ShardCounts breaks the lease table down by shard status.
type ShardCounts struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// Auditing counts completed shards whose verification re-run has not
	// resolved yet; they move to Done (or fail the audit) when it does.
	Auditing int `json:"auditing,omitempty"`
	Degraded int `json:"degraded,omitempty"`
	// Waiting counts adaptive-campaign shards parked at the round barrier:
	// every recorded round executed, held out of the lease pool until the
	// planner extends or finalizes them.
	Waiting int `json:"waiting,omitempty"`
}

// StatusReply answers GET /v1/status.
type StatusReply struct {
	Spec   CampaignSpec `json:"spec"`
	Shards ShardCounts  `json:"shards"`
	// Expired counts leases that lapsed without a final report; their
	// shards were returned to the pool for re-issue.
	Expired int `json:"expired,omitempty"`
	// Experiments sums the experiments of every coordinator-accepted shard
	// checkpoint — logical campaign progress, deduplicated.
	Experiments int `json:"experiments"`
	// Completed is true once the final StudyResult is assembled.
	Completed bool `json:"completed,omitempty"`
	// Draining reports the coordinator is refusing new leases ahead of a
	// shutdown.
	Draining bool `json:"draining,omitempty"`
	// Failed carries the campaign failure, if any.
	Failed string `json:"failed,omitempty"`
	// Telemetry is the merge of every worker's last snapshot (plus the
	// coordinator's own), attributed per source. Unlike Experiments it
	// counts work executed: a re-leased shard's duplicated experiments
	// appear here and nowhere else.
	Telemetry telemetry.Snapshot `json:"telemetry"`
}
