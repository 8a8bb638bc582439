package campaign

import (
	"slices"

	"fidelity/internal/telemetry"
)

// ShardStatus is one logical shard's place in a campaign's Schedule.
type ShardStatus uint8

const (
	// ShardPending: runnable; Grant hands out the lowest-indexed one.
	ShardPending ShardStatus = iota
	// ShardRunning: granted, not yet reported or released.
	ShardRunning
	// ShardDone: every experiment ran (a Done checkpoint).
	ShardDone
	// ShardDegraded: the run spent its failure budget (ErrShardExhausted).
	// Terminal, but the assembled result is Partial.
	ShardDegraded
	// ShardParked: an adaptive shard that executed every recorded round and
	// waits at the round barrier for the planner to extend or finalise it.
	ShardParked
)

// Schedule is a campaign's one scheduler, under both transports: Study drives
// it over function calls (granted indices down a channel to its worker
// goroutines), the distributed coordinator over leases. It holds every
// shard's latest checkpoint and status and is the only code that grants the
// lowest pending shard, classifies a returned checkpoint, and runs the
// adaptive round barrier — once the last non-terminal shard parks. One
// goroutine owns it (Study's dispatcher; the coordinator under its mutex).
type Schedule struct {
	strata   []Stratum // canonical stratum order; nil in fixed-count campaigns
	inputs   int
	targetCI float64
	tel      *telemetry.Collector
	shards   []*ShardCheckpoint // nil: the shard has not run
	status   []ShardStatus
	// strataSnap is the latest barrier's telemetry block.
	strataSnap *telemetry.StrataSnapshot
}

// NewSchedule returns the schedule of the campaign opts describes, whose
// canonical stratum order is strata (nil for fixed-count campaigns). shards,
// when non-nil, restores one checkpoint per logical shard in index order (nil
// entries have not run); each is classified as if just reported, so the
// barrier runs at once when every non-terminal shard is parked. held, when
// non-nil, carries what a coordinator persisted beside them: ShardDegraded
// keeps a shard whose last run spent its failure budget terminal (Study
// instead gives a resumed campaign's degraded shards another run),
// ShardRunning keeps a lease that survived a restart running — if the
// checkpoint leaves the shard runnable at all. A restored adaptive shard whose
// round history is shorter than the campaign's (a checkpoint saved while a
// barrier's rewrite was half applied) is first healed to the full history, of
// which it is a prefix; done and degraded ones keep theirs.
func NewSchedule(strata []Stratum, opts StudyOptions, shards []*ShardCheckpoint, held []ShardStatus) *Schedule {
	n := opts.shards()
	s := &Schedule{
		strata:   strata,
		inputs:   opts.Inputs,
		targetCI: opts.TargetCI,
		tel:      opts.Telemetry,
		shards:   make([]*ShardCheckpoint, n),
		status:   make([]ShardStatus, n),
	}
	// Shards not yet reported below are pending, which holds the barrier off.
	copy(s.shards, shards)
	history := AdaptiveHistory(s.Checkpoints())
	for i, sc := range s.shards {
		if sc != nil {
			restored, degraded := *sc, held != nil && held[i] == ShardDegraded
			if a := sc.Adaptive; a != nil && !sc.Done && !degraded && len(a.History) < len(history) {
				restored.Adaptive = &AdaptiveShardState{Round: a.Round, History: history, Final: a.Final}
			}
			s.Report(i, restored, degraded)
		}
		if held != nil && held[i] == ShardRunning && s.status[i] == ShardPending {
			s.status[i] = ShardRunning
		}
	}
	return s
}

// Grant marks the lowest-indexed pending shard running and returns it; ok is
// false when no shard is pending.
func (s *Schedule) Grant() (i int, ok bool) {
	if i = slices.Index(s.status, ShardPending); i < 0 {
		return 0, false
	}
	s.status[i] = ShardRunning
	return i, true
}

// Release returns running shard i to the pending pool with its latest
// checkpoint: the run was cancelled, or its lease lapsed.
func (s *Schedule) Release(i int) {
	if s.status[i] == ShardRunning {
		s.status[i] = ShardPending
	}
}

// Progress records a newer checkpoint of running shard i (a streamed
// heartbeat) without classifying it.
func (s *Schedule) Progress(i int, sc ShardCheckpoint) { s.shards[i] = &sc }

// Report ends shard i's run with the checkpoint it returned: exhausted (the
// run spent its failure budget) degrades it, a Done checkpoint completes it, a
// parked one waits at the round barrier, and anything else — a run handed back
// unfinished — returns it to the pending pool. If that parks the last
// non-terminal shard the barrier runs.
func (s *Schedule) Report(i int, sc ShardCheckpoint, exhausted bool) {
	s.shards[i] = &sc
	switch {
	case exhausted:
		s.status[i] = ShardDegraded
	case sc.Done:
		s.status[i] = ShardDone
	case adaptiveParked(sc):
		s.status[i] = ShardParked
	default:
		s.status[i] = ShardPending
	}
	s.barrier()
}

// barrier is the adaptive campaign's round barrier. It runs when no shard is
// pending or running and at least one is parked: every shard's tallies are
// merged in shard and stratum order (no map iteration), PlanRound decides,
// and each parked checkpoint is rewritten — the next round's allocation
// appended to the campaign history (back to pending) or, once every stratum
// has stopped, the canonical done form. Done and degraded shards feed the
// merge and are never written. A rewritten checkpoint is a fresh value with a
// fresh Adaptive, so whoever still holds the old one sees it unchanged. All
// planning floats are evaluated here and nowhere else.
func (s *Schedule) barrier() {
	if s.targetCI <= 0 || !slices.Contains(s.status, ShardParked) ||
		slices.Contains(s.status, ShardPending) || slices.Contains(s.status, ShardRunning) {
		return
	}
	all := s.Checkpoints()
	history := AdaptiveHistory(all)
	tallies := StrataTallies(s.strata, all)
	next, converged := PlanRound(s.strata, history, tallies, s.targetCI)
	snap := strataTelemetry(s.strata, tallies, history, s.targetCI)
	s.strataSnap = &snap
	if s.tel != nil {
		s.tel.SetStrata(snap)
	}
	if !converged {
		history = append(CloneHistory(history), next)
	}
	for i, sc := range all {
		if s.status[i] != ShardParked {
			continue
		}
		a := *sc.Adaptive
		sc.Adaptive = &a
		if converged {
			FinalizeAdaptiveShard(&sc, s.inputs)
			s.status[i] = ShardDone
		} else {
			a.History = history
			s.status[i] = ShardPending
		}
		s.shards[i] = &sc
	}
}

// Status returns shard i's status.
func (s *Schedule) Status(i int) ShardStatus { return s.status[i] }

// Checkpoint returns shard i's latest checkpoint, nil when it has not run.
// The value is never written through; a later report replaces the pointer.
func (s *Schedule) Checkpoint(i int) *ShardCheckpoint { return s.shards[i] }

// Checkpoints returns every shard's latest checkpoint in index order, the
// canonical empty state for a shard that has not run. Once Finished, it is
// what AssembleResult takes.
func (s *Schedule) Checkpoints() []ShardCheckpoint {
	out := make([]ShardCheckpoint, len(s.shards))
	for i, sc := range s.shards {
		if sc != nil {
			out[i] = *sc
		} else {
			out[i] = NewShardCheckpoint(i)
		}
	}
	return out
}

// Finished reports whether every shard is done or degraded.
func (s *Schedule) Finished() bool {
	return !slices.ContainsFunc(s.status, func(st ShardStatus) bool { return st != ShardDone && st != ShardDegraded })
}

// Strata returns the latest round barrier's per-stratum telemetry block, nil
// before the first barrier (and always in fixed-count campaigns).
func (s *Schedule) Strata() *telemetry.StrataSnapshot { return s.strataSnap }
