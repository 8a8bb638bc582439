package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
	"fidelity/internal/telemetry"
)

// DefaultLeaseTTL is the heartbeat budget when CoordinatorOptions.LeaseTTL
// is zero. Workers heartbeat at a third of the TTL, so the default tolerates
// two consecutive lost reports before a shard is re-issued.
const DefaultLeaseTTL = 30 * time.Second

// stateVersion guards the coordinator's persisted state format (the payload
// inside the checksum envelope; a file without a valid envelope is corrupt).
const stateVersion = 1

// CoordinatorOptions configures NewCoordinator.
type CoordinatorOptions struct {
	// Spec defines the campaign. Normalized and validated by NewCoordinator.
	Spec CampaignSpec
	// LeaseTTL is the per-lease heartbeat budget (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// StatePath, when non-empty, is where the coordinator durably persists
	// its lease table and collected checkpoints (via the campaign engine's
	// atomic-write machinery, wrapped in a content-checksum envelope). A
	// coordinator restarted on the same path resumes the campaign: collected
	// shards are not re-run, live leases stay valid, and the final result is
	// identical. A state file that fails its integrity check is quarantined
	// (renamed aside) and the campaign restarts from scratch rather than
	// resuming from corrupt data.
	StatePath string
	// AuditFraction, in [0,1], selects a deterministic sample of completed
	// shards for verification re-runs: each sampled shard is re-leased from
	// scratch to a second worker and the two checkpoints' canonical digests
	// compared. Shard determinism makes any mismatch proof of a faulty
	// worker or transport; the campaign is then flagged Partial. 0 disables
	// auditing, 1 re-verifies every shard.
	AuditFraction float64
	// Telemetry, when non-nil, receives the coordinator's own phase
	// tracking; worker snapshots are merged into it for Status.
	Telemetry *telemetry.Collector
}

// coordinatorState is the durable form of a coordinator. The shard tallies
// ride inside a standard campaign checkpoint, so the file doubles as a valid
// campaign.Checkpoint for offline inspection. On disk the whole struct is
// wrapped in campaign's content-checksum envelope; Meta additionally pins
// each completed shard's digest as recorded at acceptance time, so
// corruption anywhere between acceptance and reload is detected.
type coordinatorState struct {
	Version int          `json:"version"`
	Spec    CampaignSpec `json:"spec"`
	// Checkpoint holds every shard's last accepted state (canonical empty
	// states for shards no worker has reported yet).
	Checkpoint *campaign.Checkpoint `json:"checkpoint"`
	// Reported lists shards with at least one accepted report; the rest
	// restore with no resume state.
	Reported []int `json:"reported,omitempty"`
	// Degraded lists shards whose final report was Exhausted.
	Degraded []int `json:"degraded,omitempty"`
	// Meta carries per-shard integrity and audit records for completed
	// shards.
	Meta []persistedShardMeta `json:"meta,omitempty"`
	// Leases are the live primary leases at persist time. They survive a
	// restart so in-flight workers keep streaming without interruption.
	// Audit leases are deliberately not persisted: a restart reverts them to
	// audit-pending and the re-run is simply re-issued.
	Leases []persistedLease `json:"leases,omitempty"`
	// Seq is the lease ID counter; Expired the lapsed-lease count.
	Seq     int `json:"seq"`
	Expired int `json:"expired,omitempty"`
}

type persistedLease struct {
	ID       string    `json:"id"`
	Shard    int       `json:"shard"`
	Worker   string    `json:"worker"`
	Deadline time.Time `json:"deadline"`
}

// persistedShardMeta is one completed shard's integrity record: the digest
// of its accepted checkpoint, who produced it, and the audit outcome.
type persistedShardMeta struct {
	Shard  int    `json:"shard"`
	Sum    string `json:"sum,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Audit is "", "pending", "passed" or "failed". A live audit lease
	// persists as "pending" — the re-run restarts after a coordinator
	// restart.
	Audit       string `json:"audit,omitempty"`
	AuditWorker string `json:"audit_worker,omitempty"`
	AuditSum    string `json:"audit_sum,omitempty"`
}

// auditSeed derives the audit-sampling stream seed for one shard from the
// campaign seed (splitmix64-style mixing, the engine's experimentSeed
// pattern). Sampling depends only on (Seed, shard) — never on timing or
// worker identity — so every coordinator restart draws the same sample.
func auditSeed(seed int64, shard int) int64 {
	z := uint64(seed) ^ 0xa0d17a5eed1e57a7
	z += uint64(shard) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// auditSelected reports whether shard falls in the deterministic audit
// sample of size frac.
func auditSelected(seed int64, frac float64, shard int) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	r := rand.New(faultmodel.NewStreamSource(auditSeed(seed, shard)))
	return r.Float64() < frac
}

// Coordinator owns one campaign: it partitions the study into the engine's
// logical shards, leases them to workers, collects streamed checkpoints,
// re-issues shards whose leases lapse, audits a sample of completed shards
// against independent re-runs, and assembles the final StudyResult from the
// terminal checkpoints — the exact assembly an in-process Study performs, so
// the result is byte-identical.
type Coordinator struct {
	spec      CampaignSpec
	cfg       *accel.Config // the accelerator under study: accel.NVDLASmall()
	w         *model.Workload
	opts      campaign.StudyOptions
	statePath string
	audit     float64
	tel       *telemetry.Collector
	// strata is the adaptive campaign's canonical stratum order (nil for
	// fixed-count campaigns), which the table's schedule plans rounds over:
	// shards never plan, they replay the round history it records in their
	// checkpoints, so distributed results stay byte-identical to in-process.
	strata []campaign.Stratum

	mu       sync.Mutex
	table    *leaseTable
	workers  map[string]telemetry.Snapshot
	result   *campaign.StudyResult
	failure  error
	draining bool
	done     chan struct{}
	doneOnce sync.Once
	// wake is closed and replaced whenever a held /v1/lease long-poll should
	// look again: a final report was accepted (a shard may be pending) or
	// drain started. Finishing closes done, which waiters also watch.
	wake chan struct{}
}

// NewCoordinator builds a coordinator for o.Spec. If o.StatePath names an
// existing state file, the campaign resumes from it; the file must describe
// the same spec and accelerator config, otherwise NewCoordinator refuses
// rather than silently mixing two campaigns' shards. A state file that fails
// its integrity check (torn write, bit rot) is quarantined to
// StatePath+".corrupt" and the campaign restarts clean — detected loudly,
// never resumed silently wrong.
func NewCoordinator(o CoordinatorOptions) (*Coordinator, error) {
	spec := o.Spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if o.AuditFraction < 0 || o.AuditFraction > 1 {
		return nil, fmt.Errorf("distrib: audit fraction must be in [0,1] (got %g)", o.AuditFraction)
	}
	w, err := spec.BuildWorkload()
	if err != nil {
		return nil, err
	}
	ttl := o.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Coordinator{
		spec:      spec,
		cfg:       accel.NVDLASmall(),
		w:         w,
		opts:      spec.Options(),
		statePath: o.StatePath,
		audit:     o.AuditFraction,
		tel:       o.Telemetry,
		workers:   map[string]telemetry.Snapshot{},
		done:      make(chan struct{}),
		wake:      make(chan struct{}),
	}
	c.opts.Telemetry = o.Telemetry
	if spec.TargetCI > 0 {
		if c.strata, err = campaign.CampaignStrata(w, c.opts); err != nil {
			return nil, err
		}
	}
	c.table = c.newTable(ttl, nil, nil)
	if c.statePath != "" {
		if _, err := os.Stat(c.statePath); err == nil {
			if err := c.load(); err != nil {
				if !errors.Is(err, campaign.ErrCorruptArtifact) {
					return nil, err
				}
				// Quarantine the corrupt file where an operator can inspect
				// it, count the detection, and restart the campaign clean.
				// Shard determinism makes the re-run byte-identical, so the
				// only cost is the lost progress.
				if c.tel != nil {
					c.tel.RecordCorruptArtifact()
				}
				if rerr := os.Rename(c.statePath, c.statePath+".corrupt"); rerr != nil {
					return nil, fmt.Errorf("distrib: quarantine corrupt state: %v (detected: %w)", rerr, err)
				}
				c.table = c.newTable(ttl, nil, nil)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("distrib: state %s: %w", c.statePath, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maybeFinishLocked()
	if c.result == nil && c.failure == nil && c.statePath != "" {
		if err := c.persistLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newTable builds a lease table wired to the audit sampler, over the schedule
// of the campaign's shards restored from shards and held (nil: a fresh
// campaign).
func (c *Coordinator) newTable(ttl time.Duration, shards []*campaign.ShardCheckpoint, held []campaign.ShardStatus) *leaseTable {
	t := newLeaseTable(campaign.NewSchedule(c.strata, c.opts, shards, held), c.spec.Shards, ttl)
	if c.audit > 0 {
		seed, frac := c.spec.Seed, c.audit
		t.auditFor = func(shard int) bool { return auditSelected(seed, frac, shard) }
	}
	return t
}

// load restores the lease table from the persisted state file. Corruption —
// a missing or failed envelope checksum, an unparseable file, or a shard
// checkpoint that no longer matches the digest recorded when it was accepted
// — returns or absorbs campaign.ErrCorruptArtifact semantics: whole-file
// damage errors out (the caller quarantines), per-shard damage drops just
// that shard back to pending for re-issue.
func (c *Coordinator) load() error {
	blob, err := os.ReadFile(c.statePath)
	if err != nil {
		return fmt.Errorf("distrib: read state: %w", err)
	}
	var st coordinatorState
	if err := campaign.OpenSealedJSON(blob, &st); err != nil {
		if errors.Is(err, campaign.ErrCorruptArtifact) {
			return fmt.Errorf("distrib: state %s: %w", c.statePath, err)
		}
		// An unparseable file is the same corruption class as a failed
		// checksum: a torn or garbled write.
		return fmt.Errorf("distrib: state %s: %w: %v", c.statePath, campaign.ErrCorruptArtifact, err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("distrib: state %s has version %d, want %d", c.statePath, st.Version, stateVersion)
	}
	if st.Spec.Normalize() != c.spec {
		return fmt.Errorf("distrib: state %s describes a different campaign spec; refusing to resume", c.statePath)
	}
	if !st.Checkpoint.Matches(c.cfg, c.w, c.opts) {
		return fmt.Errorf("distrib: state %s checkpoint does not match this campaign (config %s); refusing to resume",
			c.statePath, c.cfg.Fingerprint())
	}
	n := c.spec.Shards
	inRange := func(i int) bool { return i >= 0 && i < n }
	meta := map[int]persistedShardMeta{}
	for _, m := range st.Meta {
		meta[m.Shard] = m
	}
	shards := make([]*campaign.ShardCheckpoint, n)
	for _, i := range st.Reported {
		if !inRange(i) {
			continue
		}
		sc := &st.Checkpoint.Shard[i]
		if m := meta[i]; m.Sum != "" {
			if sum, err := digestJSON(sc); err == nil && sum != m.Sum {
				// The stored checkpoint no longer matches the digest recorded
				// at acceptance: the shard's data was corrupted somewhere
				// between acceptance and this reload. Drop it and re-issue the
				// shard — determinism makes the re-run equivalent.
				if c.tel != nil {
					c.tel.RecordCorruptArtifact()
				}
				continue
			}
		}
		shards[i] = sc
	}
	held := make([]campaign.ShardStatus, n)
	for _, i := range st.Degraded {
		if inRange(i) {
			held[i] = campaign.ShardDegraded
		}
	}
	for _, pl := range st.Leases {
		if inRange(pl.Shard) && held[pl.Shard] == campaign.ShardPending {
			held[pl.Shard] = campaign.ShardRunning
		}
	}
	t := c.newTable(c.table.ttl, shards, held)
	t.seq, t.expired = st.Seq, st.Expired
	for _, pl := range st.Leases {
		// The schedule keeps a persisted lease only on a shard its checkpoint
		// leaves runnable: terminal shards never revert, and a parked shard's
		// lease already ended with its final report.
		if inRange(pl.Shard) && t.sched.Status(pl.Shard) == campaign.ShardRunning && t.shards[pl.Shard].lease == "" {
			t.shards[pl.Shard].lease = pl.ID
			t.leases[pl.ID] = &leaseEntry{id: pl.ID, shard: pl.Shard, worker: pl.Worker, deadline: pl.Deadline}
		}
	}
	// Done shards get their audit records back; those without one are
	// sealed and sampled as at acceptance (auditing may have been enabled
	// since). A restored audit does not wait a TTL for an independent
	// witness again: that wait was spent before the restart.
	for i := range t.shards {
		if t.sched.Status(i) != campaign.ShardDone {
			continue
		}
		e, m := &t.shards[i], meta[i]
		e.worker = m.Worker
		switch m.Audit {
		case "passed":
			e.audit = auditPassed
			e.auditWorker, e.auditSum = m.AuditWorker, m.AuditSum
		case "failed":
			e.audit = auditFailed
			e.auditWorker, e.auditSum = m.AuditWorker, m.AuditSum
		case "pending":
			t.openAudit(i, time.Time{})
		}
	}
	t.seal(time.Time{})
	c.table = t
	return nil
}

// persistLocked writes the current lease table durably, sealed in the
// campaign content-checksum envelope. Callers hold c.mu.
func (c *Coordinator) persistLocked() error {
	if c.statePath == "" {
		return nil
	}
	st := coordinatorState{
		Version: stateVersion,
		Spec:    c.spec,
		Seq:     c.table.seq,
		Expired: c.table.expired,
	}
	for i := range c.table.shards {
		e := &c.table.shards[i]
		if c.table.sched.Checkpoint(i) != nil {
			st.Reported = append(st.Reported, i)
		}
		if c.table.sched.Status(i) == campaign.ShardDegraded {
			st.Degraded = append(st.Degraded, i)
		}
		if e.sum == "" && e.audit == auditNone {
			continue
		}
		m := persistedShardMeta{Shard: i, Sum: e.sum, Worker: e.worker}
		switch e.audit {
		case auditPending, auditLeased:
			m.Audit = "pending"
		case auditPassed:
			m.Audit = "passed"
			m.AuditWorker, m.AuditSum = e.auditWorker, e.auditSum
		case auditFailed:
			m.Audit = "failed"
			m.AuditWorker, m.AuditSum = e.auditWorker, e.auditSum
		}
		st.Meta = append(st.Meta, m)
	}
	st.Checkpoint = campaign.NewCheckpoint(c.cfg, c.w, c.opts, c.table.sched.Checkpoints())
	for _, le := range c.table.leases {
		if le.audit {
			// Audit leases restart from scratch after a coordinator restart;
			// persisting them would demote done shards on load.
			continue
		}
		st.Leases = append(st.Leases, persistedLease{ID: le.id, Shard: le.shard, Worker: le.worker, Deadline: le.deadline})
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].ID < st.Leases[j].ID })
	err := campaign.RetryIO(c.tel, func() error {
		return campaign.AtomicWriteSealedJSON(c.statePath, &st)
	})
	if err != nil {
		return fmt.Errorf("distrib: persist state: %w", err)
	}
	return nil
}

// maybeFinishLocked assembles the StudyResult once every shard is terminal
// and every sampled audit has resolved. A failed audit does not discard the
// primary data — a digest mismatch proves one of the two runs is wrong, not
// which — so the result is kept but flagged Partial. Callers hold c.mu.
func (c *Coordinator) maybeFinishLocked() {
	if c.result != nil || c.failure != nil || !c.table.terminal() {
		return
	}
	res, err := campaign.AssembleResult(c.cfg, c.w, c.opts, c.table.sched.Checkpoints())
	if err != nil {
		c.failLocked(err)
		return
	}
	if c.table.auditFailures() > 0 {
		res.Partial = true
	}
	c.result = res
	c.doneOnce.Do(func() { close(c.done) })
}

// failLocked records a terminal campaign failure. Callers hold c.mu.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil && c.result == nil {
		c.failure = err
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// finished reports terminal state. Callers hold c.mu.
func (c *Coordinator) finishedLocked() bool { return c.result != nil || c.failure != nil }

// Result blocks until the campaign finishes (every shard terminal and the
// result assembled) or ctx is cancelled.
func (c *Coordinator) Result(ctx context.Context) (*campaign.StudyResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, c.failure
	}
	return c.result, nil
}

// Finished is the non-blocking Result: it reports whether the campaign is
// terminal and, when it is, the assembled result or failure.
func (c *Coordinator) Finished() (res *campaign.StudyResult, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, true, c.failure
	}
	if c.result != nil {
		return c.result, true, nil
	}
	return nil, false, nil
}

// StartDrain puts the coordinator into drain mode: new lease requests are
// refused (workers are told Draining and keep polling) while in-flight
// reports continue to be accepted, so current leaseholders can land their
// work before shutdown.
func (c *Coordinator) StartDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	c.wakeLocked()
}

// wakeLocked releases every held long-poll to re-check. Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Idle reports whether no lease is live — after StartDrain this means every
// in-flight shard either reported its final state or lapsed, and the
// coordinator can persist and exit without stranding accepted work.
func (c *Coordinator) Idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow wallclock lease TTL is wall-clock liveness (DESIGN.md §6), not campaign identity
	c.table.sweep(time.Now())
	return len(c.table.leases) == 0
}

// PersistNow forces a durable write of the current state (a drain's final
// step). No-op without a StatePath.
func (c *Coordinator) PersistNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persistLocked()
}

// Spec returns the normalized campaign spec.
func (c *Coordinator) Spec() CampaignSpec { return c.spec }

// Status summarizes campaign progress: shard statuses, deduplicated logical
// experiments, the merged telemetry of every reporting worker, and the audit
// pass summary.
func (c *Coordinator) Status() StatusReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow wallclock lease TTL is wall-clock liveness (DESIGN.md §6), not campaign identity
	c.table.sweep(time.Now())
	counts, exps := c.table.counts()
	st := StatusReply{
		Spec:        c.spec,
		Shards:      counts,
		Expired:     c.table.expired,
		Experiments: exps,
		Completed:   c.result != nil,
		Draining:    c.draining,
	}
	if c.failure != nil {
		st.Failed = c.failure.Error()
	}
	// Merge in sorted worker order: float aggregation is not associative to
	// the last bit, so map order would leak into the merged snapshot.
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	snaps := make([]telemetry.Snapshot, 0, len(ids))
	for _, id := range ids {
		snaps = append(snaps, c.workers[id])
	}
	st.Telemetry = telemetry.Merge("coordinator", snaps...)
	// The audit summary and adaptive strata are coordinator-side state, not
	// worker-reported: attach them to the merged view directly.
	st.Telemetry.Audit = c.table.auditSnapshot()
	st.Telemetry.Strata = c.table.sched.Strata()
	return st
}

// Handler returns the coordinator's HTTP API, wrapped in the transport
// integrity layer (request size caps + body digest verification).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaign", c.handleCampaign)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/report", c.handleReport)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /v1/result", c.handleResult)
	return withIntegrity(mux)
}

func (c *Coordinator) handleCampaign(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, HelloReply{
		Spec:        c.spec,
		Config:      *c.cfg,
		Fingerprint: c.cfg.Fingerprint(),
	})
}

func (c *Coordinator) handleLease(rw http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// A long-poll (WaitMS) holds the request, outside c.mu, until there may be
	// something to lease or the campaign ends; then it answers as any other.
	var timeout <-chan time.Time
	quarter := c.table.ttl / 4
	retryMS := quarter.Milliseconds()
	if wait := min(time.Duration(req.WaitMS)*time.Millisecond, quarter); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.finishedLocked() {
			writeJSON(rw, http.StatusOK, LeaseReply{Done: true})
			return
		}
		if c.draining {
			writeJSON(rw, http.StatusOK, LeaseReply{Draining: true, RetryAfterMS: quarter.Milliseconds()})
			return
		}
		//lint:allow wallclock lease TTL is wall-clock liveness (DESIGN.md §6), not campaign identity
		if lease := c.table.acquire(req.Worker, time.Now()); lease != nil {
			if err := c.persistLocked(); err != nil {
				c.failLocked(err)
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(rw, http.StatusOK, LeaseReply{Lease: lease})
			return
		}
		if timeout == nil {
			writeJSON(rw, http.StatusOK, LeaseReply{RetryAfterMS: retryMS})
			return
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-c.done:
		case <-timeout:
			// Held for the whole wait: the worker may ask again at once.
			timeout, retryMS = nil, 0
		case <-r.Context().Done():
			c.mu.Lock() // the client is gone: grant it nothing
			return
		}
		c.mu.Lock()
	}
}

func (c *Coordinator) handleReport(rw http.ResponseWriter, r *http.Request) {
	req, err := decodeReport(r.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Telemetry counts work executed wherever it ran, so record it even when
	// the lease turns out to be stale.
	if req.Telemetry != nil && req.Worker != "" {
		c.workers[req.Worker] = *req.Telemetry
	}
	if req.Error != "" {
		c.failLocked(fmt.Errorf("distrib: worker %s failed shard %d: %s", req.Worker, req.Shard.Index, req.Error))
	}
	if c.finishedLocked() {
		writeJSON(rw, http.StatusOK, ReportReply{Cancel: true, Done: true})
		return
	}
	var prev *campaign.ShardCheckpoint
	if i := req.Shard.Index; i >= 0 && i < c.spec.Shards {
		prev = c.table.sched.Checkpoint(i)
	}
	//lint:allow wallclock lease TTL is wall-clock liveness (DESIGN.md §6), not campaign identity
	now := time.Now()
	// A parked final report may complete the round barrier: the schedule
	// plans the next round (or finalizes) inside report, before the grant and
	// the persist, so the state file always reflects the post-barrier table.
	ok := c.table.report(&req, now)
	dirty := ok && (req.Final || prev == nil || prev.Experiments != req.Shard.Experiments || prev.Cursor != req.Shard.Cursor)
	// Grant-on-report: the worker's next lease rides this reply, under the
	// same lock and the same persist. A retry of a final report whose reply
	// was lost is refused (the lease is gone) but is handed the same grant.
	var lease *Lease
	if req.WantLease && !c.draining {
		lease = c.table.acquire(req.Worker, now)
	}
	if dirty || lease != nil {
		if err := c.persistLocked(); err != nil {
			c.failLocked(err)
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if ok && req.Final {
		c.maybeFinishLocked()
		c.wakeLocked()
	}
	writeJSON(rw, http.StatusOK, ReportReply{OK: ok, Cancel: !ok, Done: c.finishedLocked(), Lease: lease})
}

func (c *Coordinator) handleStatus(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, c.Status())
}

func (c *Coordinator) handleResult(rw http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.failure != nil:
		http.Error(rw, c.failure.Error(), http.StatusInternalServerError)
	case c.result == nil:
		http.Error(rw, "campaign incomplete", http.StatusNotFound)
	default:
		writeJSON(rw, http.StatusOK, c.result)
	}
}

// writeJSON sends v with a body digest header, so clients detect replies
// corrupted in transit and retry instead of decoding garbage.
func writeJSON(rw http.ResponseWriter, code int, v any) {
	blob, err := encodeBody(v)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set(DigestHeader, digestBytes(blob))
	rw.WriteHeader(code)
	rw.Write(blob)
}
