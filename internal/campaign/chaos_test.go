package campaign

// The chaos self-test harness: synthetic framework failures — panics, hangs,
// and checkpoint I/O errors — are injected into live campaigns through the
// test-only chaosPolicy hook, and the supervision layer must recover every
// one deterministically: to the clean run minus the quarantined experiments
// (also TestConformance's supervised cells). Run with -race: the watchdog's
// abandoned-goroutine protocol is part of what is verified.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/telemetry"
)

// chaosKey addresses one experiment for targeted failure injection.
type chaosKey struct {
	shard int
	cur   Cursor
}

// chaosBase is the small campaign the chaos tests perturb: Samples=120 over
// Inputs=2 puts 60 samples per input on 16 shards, so shards 0-11 run 4
// samples per (input, model) and shards 12-15 run 3.
func chaosBase() StudyOptions {
	return StudyOptions{Samples: 120, Inputs: 2, Tolerance: 0.1, Seed: 21}
}

// supervision is the chaos of a supervised run: a recovered panic at each of
// panics, in cursor order, and at hang an experiment that blocks until its
// watchdog fires, which the hang makes happen at once. Only the hang may trip
// the deadline: it sits far above a real experiment, even under -race.
type supervision struct {
	panics []chaosKey
	hang   chaosKey
}

const supervisionDeadline = 5 * time.Second

// policy builds the chaos of one run. The hang lasts until the test ends, or
// for twice the deadline: a watchdog that never fires lets the experiment
// finish, and the result differs.
func (s supervision) policy(t *testing.T) *chaosPolicy {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	hangTimer := make(chan *time.Timer, 1)
	return &chaosPolicy{
		experiment: func(shard int, cur Cursor) {
			k := chaosKey{shard, cur}
			if slices.Contains(s.panics, k) {
				panic("chaos: synthetic panic")
			}
			if k == s.hang {
				(<-hangTimer).Reset(0)
				select {
				case <-release:
				case <-time.After(2 * supervisionDeadline):
				}
			}
		},
		timer: func(shard int, cur Cursor, timeout time.Duration) *time.Timer {
			tm := time.NewTimer(timeout)
			if (chaosKey{shard, cur}) == s.hang {
				hangTimer <- tm
			}
			return tm
		},
	}
}

// without runs opts on e from a checkpoint that lists s's experiments as
// quarantined, which a resume skips: the clean campaign minus them, as the
// supervisor records them. It returns the StudyResult JSON.
func (s supervision) without(t *testing.T, e execution, w *model.Workload, opts StudyOptions) []byte {
	t.Helper()
	shards := make([]ShardCheckpoint, opts.shards())
	for i := range shards {
		shards[i] = NewShardCheckpoint(i)
	}
	for _, k := range append(slices.Clone(s.panics), s.hang) {
		q := QuarantinedExperiment{Shard: k.shard, Cursor: k.cur, Model: faultmodel.AllIDs()[k.cur.Model].String(),
			Reason: ReasonPanic, Detail: "chaos: synthetic panic"}
		if k == s.hang {
			q.Reason, q.Detail = ReasonTimeout, fmt.Sprintf("exceeded %v", supervisionDeadline)
		}
		shards[k.shard].Quarantine = append(shards[k.shard].Quarantine, q)
	}
	opts.Resume = NewCheckpoint(accel.NVDLASmall(), w, opts, shards)
	res, _, err := e.run(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, res)
}

// TestChaosWatchdogNeverLendsZombie plays one distrib worker through a hang:
// every shard of the chaos campaign runs through one ShardRunner, one lease
// after another, and the hung experiment's timer fires the moment the hang is
// reached. The executor the watchdog abandons to the wedged goroutine must
// never come back from the runner's idle list — the shard finishes on a new
// one, which every later lease reuses — and the shards must assemble to the
// clean run minus the hung experiment.
func TestChaosWatchdogNeverLendsZombie(t *testing.T) {
	sup := supervision{hang: chaosKey{shard: 9, cur: Cursor{Input: 1, Model: 2, Sample: 0}}}
	cfg, w, opts := accel.NVDLASmall(), engineWorkload(t), chaosBase()
	want := sup.without(t, production, w, opts)
	opts.ExperimentTimeout, opts.chaos = supervisionDeadline, sup.policy(t)
	r, err := NewShardRunner(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]ShardCheckpoint, opts.shards())
	var zombie *inject.Injector
	for s := range finals {
		if s == sup.hang.shard {
			// Shards run one at a time, so the one idle executor is the one
			// the hanging shard borrows.
			if len(r.idle) != 1 {
				t.Fatalf("before shard %d: %d idle executors, want 1", s, len(r.idle))
			}
			zombie = r.idle[0]
		}
		if finals[s], err = r.Run(context.Background(), ShardRun{Index: s}); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if zombie != nil && slices.Contains(r.idle, zombie) {
			t.Fatalf("after shard %d the executor abandoned to the hung experiment is idle again", s)
		}
	}
	if len(r.idle) != 1 {
		t.Errorf("%d idle executors after the last lease, want 1: the one replacing the abandoned one", len(r.idle))
	}
	res, err := AssembleResult(cfg, w, opts, finals)
	if err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "leases through a hang vs clean-minus-quarantined", want, res)
}

// TestChaosPeriodicSave covers the periodic checkpoint save. At an interval
// of a nanosecond the running shards stream their checkpoints to the
// dispatcher from the experiment boundaries of each window's commit phase,
// and the dispatcher saves whenever it is idle. Shard 0's first experiment of
// fault model 1 waits until two saves have begun since it was reached: the
// first of them was written while the shard ran, holding its last streamed
// checkpoint. A boundary streams before it commits the experiment at its
// cursor, so that checkpoint is fault model 0's window short of at least its
// last experiment. The save must hold the shard's progress within fault model
// 0, and resuming from it must give the clean result byte for byte.
func TestChaosPeriodicSave(t *testing.T) {
	cfg, w := accel.NVDLASmall(), engineWorkload(t)
	base := StudyOptions{Samples: 16, Inputs: 1, Tolerance: 0.1, Seed: 21, Shards: 2, Workers: 2}
	clean, err := Study(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "periodic.json")
	var armed atomic.Bool
	saved := make(chan struct{})
	saves := 0
	var mid *Checkpoint
	opts := base
	opts.CheckpointPath, opts.CheckpointInterval = path, time.Nanosecond
	opts.chaos = &chaosPolicy{
		experiment: func(shard int, cur Cursor) {
			if shard == 0 && cur == (Cursor{Model: 1}) {
				armed.Store(true)
				select {
				case <-saved:
				case <-time.After(time.Minute):
					t.Error("no periodic save while shard 0 waited")
				}
			}
		},
		// Saves run on the dispatcher, which is Study's caller: this test's
		// goroutine.
		save: func(string) error {
			if armed.Load() {
				if saves++; saves == 2 {
					cp, err := LoadCheckpoint(path)
					if err != nil {
						t.Error(err)
					}
					mid = cp
					close(saved)
				}
			}
			return nil
		},
	}
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("no periodic save was captured")
	}
	if sc := mid.Shard[0]; sc.Experiments == 0 || sc.Done || sc.Cursor.Input != 0 || sc.Cursor.Model != 0 {
		t.Fatalf("the periodic save holds running shard 0 at %d experiments, cursor %+v (done=%v), want its progress within fault model 0", sc.Experiments, sc.Cursor, sc.Done)
	}
	resume := base
	resume.Resume = mid
	res, err := Study(context.Background(), cfg, w, resume)
	if err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "resume from a periodic save", marshal(t, clean), res)
}

// res1Recovery fetches the telemetry recovery snapshot, failing if absent.
func res1Recovery(t *testing.T, tel *telemetry.Collector) *telemetry.RecoverySnapshot {
	t.Helper()
	rec := tel.Snapshot().Recovery
	if rec == nil {
		t.Fatal("chaos campaign produced no telemetry recovery snapshot")
	}
	return rec
}

// TestChaosCheckpointIOErrors injects synthetic checkpoint-write failures.
// Transient ones must be absorbed by the retry loop (and counted); a
// persistent failure of the on-interrupt save must surface as an error.
func TestChaosCheckpointIOErrors(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := chaosBase()
	base.Workers = 4

	t.Run("transient", func(t *testing.T) {
		clean, err := Study(context.Background(), cfg, w, base)
		if err != nil {
			t.Fatal(err)
		}

		// Interrupt mid-flight with a save path that fails twice per write:
		// the on-cancel checkpoint save must retry through it. The cancel comes
		// from inside the campaign, as half the clean run's experiments have
		// started, so the other half cannot finish first however fast they run.
		var attempts, started atomic.Int64
		tel := telemetry.New()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ckptPath := filepath.Join(t.TempDir(), "transient.json")
		opts := base
		opts.Telemetry = tel
		opts.CheckpointPath = ckptPath
		opts.chaos = &chaosPolicy{
			experiment: func(int, Cursor) {
				if started.Add(1) == int64(clean.Experiments)/2 {
					cancel()
				}
			},
			save: func(string) error {
				if attempts.Add(1)%3 != 0 {
					return errors.New("chaos: synthetic EIO")
				}
				return nil
			},
		}
		_, err = Study(ctx, cfg, w, opts)
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("got %v, want *Interrupted (the transient failures must be retried through)", err)
		}
		if intr.Path != ckptPath {
			t.Fatalf("checkpoint not saved despite retries (path %q)", intr.Path)
		}
		if rec := res1Recovery(t, tel); rec.IORetries < 2 {
			t.Errorf("telemetry counted %d I/O retries, want >= 2", rec.IORetries)
		}

		// The retried-through checkpoint is intact: resuming completes to the
		// clean result.
		saved, err := LoadCheckpoint(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		resume := base
		resume.Resume = saved
		res, err := Study(context.Background(), cfg, w, resume)
		if err != nil {
			t.Fatal(err)
		}
		requireSameJSON(t, "resume after transient save failures", marshal(t, clean), res)
	})

	t.Run("persistent", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := base
		opts.CheckpointPath = filepath.Join(t.TempDir(), "never.json")
		opts.chaos = &chaosPolicy{save: func(string) error {
			return errors.New("chaos: synthetic EIO")
		}}
		_, err := Study(ctx, cfg, w, opts)
		if err == nil || !strings.Contains(err.Error(), "saving the checkpoint failed") {
			t.Errorf("persistently failing save returned %v, want a checkpoint-save error", err)
		}
		var intr *Interrupted
		if errors.As(err, &intr) {
			t.Error("a lost checkpoint must not be reported as a clean interrupt")
		}
	})
}

// TestChaosFailureBudget drives one shard's quarantines past its failure
// budget: the shard must stop contributing and the study degrade into a
// flagged partial result — while an unlimited budget grinds through every
// failure.
func TestChaosFailureBudget(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := chaosBase()
	base.Workers = 4
	const badShard = 3
	chaos := &chaosPolicy{experiment: func(shard int, cur Cursor) {
		if shard == badShard {
			panic("chaos: shard cursed")
		}
	}}

	// The cursed shard's full experiment count, from the deterministic
	// partition arithmetic (see chaosBase).
	shardTotal := 0
	for input := 0; input < base.Inputs; input++ {
		per := base.Samples / base.Inputs
		if input < base.Samples%base.Inputs {
			per++
		}
		mine := per / base.shards()
		if badShard < per%base.shards() {
			mine++
		}
		shardTotal += mine * len(faultmodel.AllIDs())
	}

	t.Run("exhausted", func(t *testing.T) {
		tel := telemetry.New()
		opts := base
		opts.chaos = chaos
		opts.FailureBudget = 5
		opts.Telemetry = tel
		res, err := Study(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Error("exhausted failure budget did not flag the result partial")
		}
		if len(res.Quarantined) != opts.FailureBudget+1 {
			t.Errorf("quarantined %d experiments, want %d (budget + the exceeding one)",
				len(res.Quarantined), opts.FailureBudget+1)
		}
		for _, q := range res.Quarantined {
			if q.Shard != badShard {
				t.Errorf("quarantine leaked to shard %d: %+v", q.Shard, q)
			}
		}
		rec := res1Recovery(t, tel)
		found := false
		for _, s := range rec.Shards {
			if s.Shard == badShard {
				found = true
				if !s.Exhausted || s.Failures != int64(opts.FailureBudget+1) || s.Budget != int64(opts.FailureBudget) {
					t.Errorf("shard budget state %+v, want exhausted at %d/%d", s, opts.FailureBudget+1, opts.FailureBudget)
				}
			}
		}
		if !found {
			t.Error("telemetry recovery snapshot misses the exhausted shard")
		}
	})

	t.Run("unlimited", func(t *testing.T) {
		opts := base
		opts.chaos = chaos
		opts.FailureBudget = -1
		res, err := Study(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Error("unlimited budget flagged the result partial")
		}
		if len(res.Quarantined) != shardTotal {
			t.Errorf("quarantined %d experiments, want the cursed shard's full %d", len(res.Quarantined), shardTotal)
		}
	})
}

// TestExperimentSeedStability pins the cursor-derived stream mixing: the
// checkpoint format (v2) depends on every experiment's stream being a pure
// function of (shard seed, cursor), so a change here is a format break.
func TestExperimentSeedStability(t *testing.T) {
	a := experimentSeed(shardSeed(21, 3), Cursor{Input: 1, Model: 2, Sample: 4})
	b := experimentSeed(shardSeed(21, 3), Cursor{Input: 1, Model: 2, Sample: 4})
	if a != b {
		t.Fatalf("experimentSeed is not deterministic: %d != %d", a, b)
	}
	seen := map[int64]Cursor{}
	for input := 0; input < 4; input++ {
		for sample := 0; sample < 64; sample++ {
			cur := Cursor{Input: input, Sample: sample}
			s := experimentSeed(shardSeed(21, 3), cur)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between cursors %+v and %+v", prev, cur)
			}
			seen[s] = cur
		}
	}
	if fmt.Sprintf("%d", experimentSeed(0, Cursor{})) == "0" {
		t.Error("zero inputs must still mix to a non-trivial seed")
	}
}
