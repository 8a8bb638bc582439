package campaign

// The supervision layer: the fault-injection framework must itself be
// resilient to faults. A campaign of millions of experiments will eventually
// hit a panicking recompute hook, a convergence loop wedged by a NaN blowup,
// or a checkpoint-write hiccup; none of those may discard hours of shard
// progress. The supervisor wraps every experiment in a recovery boundary
// (panics are caught and the experiment quarantined), bounds each
// experiment's wall-clock time with a per-shard watchdog (hangs are
// abandoned and quarantined), charges quarantines against a per-shard
// failure budget (systematic failures degrade the study into a flagged
// partial result instead of spinning), and retries transient checkpoint I/O
// failures with bounded exponential backoff.
//
// Determinism survives all of this because every experiment draws from an
// independent random stream derived from (seed, shard, cursor): a failed
// experiment cannot perturb any other experiment's draws, so a chaos-ridden
// campaign produces exactly the tallies of a clean run minus the quarantined
// cursors — and a resume skips quarantined cursors bit-identically without
// replaying them.

import (
	"fmt"
	"time"

	"fidelity/internal/telemetry"
)

// Supervision defaults: the failure budget a zero StudyOptions.FailureBudget
// selects, and RetryIO's policy.
const (
	// DefaultFailureBudget is the per-shard quarantine cap: one shard may
	// lose this many experiments to panics/timeouts before it stops
	// contributing and the study degrades to a partial result.
	DefaultFailureBudget = 16
	// ioRetries is how many times RetryIO retries a failed write before the
	// error propagates.
	ioRetries = 3
	// ioBackoff is RetryIO's initial retry backoff; it doubles per attempt.
	ioBackoff = 100 * time.Millisecond
)

// frameworkFault describes a supervised failure of the framework itself
// during one experiment.
type frameworkFault struct {
	reason string // ReasonPanic or ReasonTimeout
	detail string
}

// experimentSeed derives the independent stream seed of one experiment from
// its shard seed and cursor (splitmix64-style mixing). Streams depend only
// on campaign identity and position — never on execution history — which is
// what makes quarantine skips and resumes bit-identical.
func experimentSeed(shardSeed int64, cur Cursor) int64 {
	z := uint64(shardSeed)
	for _, v := range [...]int{cur.Input, cur.Model, cur.Exec, cur.Sample} {
		z += uint64(v) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// chaosPolicy is the test-only failure injector of the chaos self-test
// harness; nil in production. experiment runs inside the recovery boundary
// immediately before the injection executes — it may panic (recovered and
// quarantined) or block (watchdog fires and quarantines). save runs before
// every checkpoint write and may return a synthetic I/O error, which is
// retried exactly like a real one. timer, when set, builds the watchdog's
// deadline timer of each experiment in place of time.NewTimer, so that a test
// can fire it the moment its hang is reached.
type chaosPolicy struct {
	experiment func(shard int, cur Cursor)
	save       func(path string) error
	timer      func(shard int, cur Cursor, timeout time.Duration) *time.Timer
}

// newTimer starts the watchdog's deadline timer for the experiment at cur:
// time.NewTimer(timeout), unless the chaos policy builds it.
func (c *chaosPolicy) newTimer(shard int, cur Cursor, timeout time.Duration) *time.Timer {
	if c == nil || c.timer == nil {
		return time.NewTimer(timeout)
	}
	return c.timer(shard, cur, timeout)
}

// failureBudget resolves the per-shard quarantine cap; negative means
// unlimited.
func (o StudyOptions) failureBudget() int {
	switch {
	case o.FailureBudget > 0:
		return o.FailureBudget
	case o.FailureBudget < 0:
		return -1
	default:
		return DefaultFailureBudget
	}
}

// RetryIO runs fn, retrying transient failures ioRetries times with
// exponential backoff starting at ioBackoff. It is the shared guard
// for checkpoint, manifest and coordinator-state writes: a single NFS hiccup
// or EINTR must not kill a multi-hour campaign. Each retry is counted on tel
// (when non-nil). The last error propagates once the budget is spent.
func RetryIO(tel *telemetry.Collector, fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt >= ioRetries {
			return err
		}
		if tel != nil {
			tel.RecordIORetry()
		}
		time.Sleep(ioBackoff << attempt)
	}
}

// saveCheckpoint persists cp to path with retry-with-backoff. The campaign
// context is deliberately not consulted: the save on interrupt runs after
// cancellation, and its bounded retries must still happen.
func saveCheckpoint(cp *Checkpoint, path string, opts StudyOptions) error {
	return RetryIO(opts.Telemetry, func() error {
		if c := opts.chaos; c != nil && c.save != nil {
			if err := c.save(path); err != nil {
				return fmt.Errorf("campaign: write checkpoint: %w", err)
			}
		}
		return cp.Save(path)
	})
}
