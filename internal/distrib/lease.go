package distrib

import (
	"fmt"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/telemetry"
)

// auditState tracks a completed shard's independent re-verification. Shard
// determinism (DESIGN.md §6) means a second worker re-running a shard from
// scratch must reproduce the primary checkpoint byte for byte, so a digest
// mismatch is proof of a faulty worker or transport — not noise.
type auditState int

const (
	// auditNone: the shard was not sampled for audit.
	auditNone auditState = iota
	// auditPending: sampled, waiting for a (preferably different) worker.
	auditPending
	// auditLeased: a live audit lease covers the re-run.
	auditLeased
	// auditPassed: the re-run's checkpoint digest matched the primary's.
	auditPassed
	// auditFailed: the digests differ — the campaign is flagged Partial.
	auditFailed
)

func (a auditState) resolved() bool { return a == auditNone || a == auditPassed || a == auditFailed }

// shardEntry is what a network adds to one shard of the schedule.
type shardEntry struct {
	// lease is the current lease ID while the schedule has the shard running.
	lease string
	// worker produced the shard's last accepted final report. sum is the
	// canonical-JSON digest of its done checkpoint, recorded once the
	// schedule completes it. Verifying sum at state load catches corruption
	// across the shard's whole lifetime in coordinator memory, not just on
	// disk.
	sum    string
	worker string
	// audit fields mirror the primary ones for the verification re-run. The
	// audit checkpoint is kept separate so a lapsing audit never clobbers
	// the primary result it is meant to check.
	audit       auditState
	auditLease  string
	auditCkpt   *campaign.ShardCheckpoint
	auditSum    string
	auditWorker string
	// auditSince is when the shard became auditable; it gates the fallback
	// that lets the primary worker audit itself when no one else shows up.
	auditSince time.Time
}

type leaseEntry struct {
	id       string
	shard    int
	worker   string
	deadline time.Time
	// audit marks a verification re-run lease: its reports update the audit
	// checkpoint, never the primary one.
	audit bool
	// reported is set by the first accepted report. Until then the grant may
	// never have reached the worker, so acquire re-issues it (same ID) when
	// that worker asks again instead of stranding the shard for a TTL.
	reported bool
}

// leaseTable is what a network adds to a campaign.Schedule: lease IDs and
// their TTLs, re-grant of a lease whose reply was lost, the heartbeat
// `behind` rule, and audits. Which shard runs next and what a reported
// checkpoint means are the schedule's decisions, including the adaptive round
// barrier. It is not safe for concurrent use; the coordinator serializes
// access under its mutex. Expiry is lazy: lapsed leases are swept at the head
// of every operation, so no background timer is needed and the table is
// trivially restorable from a persisted snapshot.
type leaseTable struct {
	sched   *campaign.Schedule
	ttl     time.Duration
	seq     int
	shards  []shardEntry
	leases  map[string]*leaseEntry
	expired int
	// auditFor, when non-nil, selects which completed shards get an audit
	// re-run (a deterministic sample of the campaign seed).
	auditFor func(shard int) bool
}

func newLeaseTable(sched *campaign.Schedule, n int, ttl time.Duration) *leaseTable {
	return &leaseTable{
		sched:  sched,
		ttl:    ttl,
		shards: make([]shardEntry, n),
		leases: map[string]*leaseEntry{},
	}
}

// sweep drops lapsed leases, releasing their shards to the pending pool with
// their last accepted checkpoints intact.
func (t *leaseTable) sweep(now time.Time) {
	for id, le := range t.leases {
		if now.After(le.deadline) {
			e := &t.shards[le.shard]
			if le.audit {
				if e.auditLease == id {
					e.audit = auditPending
					e.auditLease = ""
				}
			} else if e.lease == id {
				t.sched.Release(le.shard)
				e.lease = ""
			}
			delete(t.leases, id)
			t.expired++
		}
	}
}

// acquire leases the schedule's next shard to worker, or, when no shard is
// pending, the lowest-indexed pending audit re-run. Audit leases
// prefer a worker other than the one that produced the primary result — an
// independent witness — falling back to self-audit only after a full TTL
// with no other taker, so single-worker deployments still drain. A worker
// that already holds a lease it never reported against gets that lease again
// with a fresh deadline: the reply that carried it was lost.
func (t *leaseTable) acquire(worker string, now time.Time) *Lease {
	t.sweep(now)
	for _, le := range t.leases {
		if le.worker == worker && !le.reported {
			return t.grant(le, now)
		}
	}
	if i, ok := t.sched.Grant(); ok {
		le := t.newLease(i, worker, false)
		t.shards[i].lease = le.id
		return t.grant(le, now)
	}
	for i := range t.shards {
		e := &t.shards[i]
		if e.audit != auditPending || worker == e.worker && now.Before(e.auditSince.Add(t.ttl)) {
			continue
		}
		le := t.newLease(i, worker, true)
		e.audit, e.auditLease = auditLeased, le.id
		return t.grant(le, now)
	}
	return nil
}

// newLease registers the next lease ID for shard.
func (t *leaseTable) newLease(shard int, worker string, audit bool) *leaseEntry {
	t.seq++
	le := &leaseEntry{id: fmt.Sprintf("lease-%d", t.seq), shard: shard, worker: worker, audit: audit}
	t.leases[le.id] = le
	return le
}

// grant starts (or restarts) le's TTL and returns its wire form, resuming
// from the shard's last accepted checkpoint.
func (t *leaseTable) grant(le *leaseEntry, now time.Time) *Lease {
	le.deadline = now.Add(t.ttl)
	resume := t.sched.Checkpoint(le.shard)
	if le.audit {
		resume = t.shards[le.shard].auditCkpt
	}
	return &Lease{ID: le.id, Shard: le.shard, TTLMS: t.ttl.Milliseconds(), Resume: resume, Audit: le.audit}
}

// report applies a worker's checkpoint to the table. Only the shard's
// current lease holder is accepted; anything else — an expired lease, a
// lease superseded by a re-issue, a duplicate of an already-final report —
// is rejected so a resurrected worker cannot clobber a shard that moved on.
// Accepted non-final reports extend the lease (heartbeat) and replace the
// checkpoint unless they are behind it; accepted final reports end the lease
// and hand the checkpoint to the schedule (or resolve its audit).
func (t *leaseTable) report(req *ReportRequest, now time.Time) bool {
	t.sweep(now)
	le := t.leases[req.LeaseID]
	if le == nil || le.worker != req.Worker || le.shard != req.Shard.Index {
		return false
	}
	e := &t.shards[le.shard]
	le.reported = true
	if le.audit {
		return t.reportAudit(le, e, req, now)
	}
	if !req.Final {
		le.deadline = now.Add(t.ttl)
		if !behind(&req.Shard, t.sched.Checkpoint(le.shard)) {
			t.sched.Progress(le.shard, req.Shard)
		}
		return true
	}
	delete(t.leases, req.LeaseID)
	e.lease = ""
	e.worker = req.Worker
	t.sched.Report(le.shard, req.Shard, req.Exhausted)
	t.seal(now)
	return true
}

// seal records the acceptance digest of every newly done shard — completed
// by its own report or finalised at a round barrier — and samples it for
// audit unless it has an audit record already. Degraded shards are never
// sealed: their quarantine lists can depend on wall-clock supervision
// (timeouts), so a re-run mismatch would not be proof of fault.
func (t *leaseTable) seal(now time.Time) {
	for i := range t.shards {
		e := &t.shards[i]
		if e.sum != "" || t.sched.Status(i) != campaign.ShardDone {
			continue
		}
		sum, err := digestJSON(t.sched.Checkpoint(i))
		if err != nil {
			continue
		}
		e.sum = sum
		if e.audit == auditNone && t.auditFor != nil && t.auditFor(i) {
			t.openAudit(i, now)
		}
	}
}

// openAudit queues done shard i's verification re-run. since gates the
// primary worker's self-audit fallback.
func (t *leaseTable) openAudit(i int, since time.Time) {
	e := &t.shards[i]
	e.audit, e.auditSince = auditPending, since
	if a := t.sched.Checkpoint(i).Adaptive; a != nil {
		// Adaptive audits replay the recorded history from empty tallies;
		// a from-scratch resume would just park.
		e.auditCkpt = campaign.AdaptiveAuditResume(i, a.History)
	}
}

// behind reports whether heartbeat sc is older than the accepted checkpoint:
// a duplicated or delayed delivery, which must not roll the shard back.
func behind(sc, accepted *campaign.ShardCheckpoint) bool {
	return accepted != nil && sc.Experiments < accepted.Experiments
}

// reportAudit applies a report against an audit lease: heartbeats stream to
// the audit checkpoint (never the primary), and the final report resolves
// the audit by comparing canonical digests.
func (t *leaseTable) reportAudit(le *leaseEntry, e *shardEntry, req *ReportRequest, now time.Time) bool {
	if !req.Final {
		le.deadline = now.Add(t.ttl)
		if !behind(&req.Shard, e.auditCkpt) {
			e.auditCkpt = &req.Shard
		}
		return true
	}
	e.auditCkpt = &req.Shard
	delete(t.leases, le.id)
	e.auditLease = ""
	if !req.Shard.Done && !req.Exhausted {
		// Lease handed back unfinished; re-issue the audit.
		e.audit = auditPending
		return true
	}
	sum, err := digestJSON(&req.Shard)
	if err != nil {
		e.audit = auditPending
		return true
	}
	e.auditSum = sum
	e.auditWorker = req.Worker
	if sum == e.sum {
		e.audit = auditPassed
	} else {
		e.audit = auditFailed
	}
	return true
}

// terminal reports whether every shard is done or degraded AND every sampled
// audit has resolved — the campaign does not finish with verifications in
// flight.
func (t *leaseTable) terminal() bool {
	for i := range t.shards {
		if !t.shards[i].audit.resolved() {
			return false
		}
	}
	return t.sched.Finished()
}

// auditFailures counts unresolved-as-failed audits.
func (t *leaseTable) auditFailures() int {
	n := 0
	for i := range t.shards {
		if t.shards[i].audit == auditFailed {
			n++
		}
	}
	return n
}

// auditSnapshot summarizes the audit pass for telemetry, nil when no shard
// was sampled.
func (t *leaseTable) auditSnapshot() *telemetry.AuditSnapshot {
	var a telemetry.AuditSnapshot
	for i := range t.shards {
		e := &t.shards[i]
		switch e.audit {
		case auditNone:
			continue
		case auditPending, auditLeased:
			a.Pending++
		case auditPassed:
			a.Passed++
		case auditFailed:
			a.Failed++
			a.Failures = append(a.Failures, telemetry.AuditFailure{
				Shard:       i,
				Worker:      e.worker,
				AuditWorker: e.auditWorker,
				Sum:         e.sum,
				AuditSum:    e.auditSum,
			})
		}
		a.Sampled++
	}
	if a.Sampled == 0 {
		return nil
	}
	return &a
}

// counts summarizes shard statuses and total accepted experiments. A done
// shard whose audit is still open counts as Auditing, not Done, so status
// consumers see the campaign is not finished yet.
func (t *leaseTable) counts() (ShardCounts, int) {
	var c ShardCounts
	exps := 0
	for i := range t.shards {
		switch t.sched.Status(i) {
		case campaign.ShardPending:
			c.Pending++
		case campaign.ShardRunning:
			c.Leased++
		case campaign.ShardDone:
			if !t.shards[i].audit.resolved() {
				c.Auditing++
			} else {
				c.Done++
			}
		case campaign.ShardDegraded:
			c.Degraded++
		case campaign.ShardParked:
			c.Waiting++
		}
		if sc := t.sched.Checkpoint(i); sc != nil {
			exps += sc.Experiments
		}
	}
	return c, exps
}
