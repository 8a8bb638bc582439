package campaign

// The chaos self-test harness: synthetic framework failures — panics, hangs,
// and checkpoint I/O errors — are injected into live campaigns through the
// test-only chaosPolicy hook, and the supervision layer must recover every
// one deterministically. The central contract under test: a chaos-ridden
// campaign produces exactly the tallies of a clean run minus the quarantined
// experiments, independent of worker count, and a chaos run interrupted and
// resumed reproduces the uninterrupted chaos run bit for bit. Run with -race:
// the watchdog's abandoned-goroutine protocol is part of what is verified.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
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

// observeClean runs the campaign without chaos, recording the outcome of
// every experiment in targets, and returns the clean result plus the
// recorded outcomes.
func observeClean(t *testing.T, opts StudyOptions, targets map[chaosKey]bool) (*StudyResult, map[chaosKey]observed) {
	t.Helper()
	var mu sync.Mutex
	seen := map[chaosKey]observed{}
	opts.Workers = 4
	opts.observe = func(shard int, cur Cursor, id faultmodel.ID, r inject.Result) {
		k := chaosKey{shard, cur}
		if !targets[k] {
			return
		}
		mu.Lock()
		seen[k] = observed{id: id, r: r}
		mu.Unlock()
	}
	res, err := Study(context.Background(), accel.NVDLASmall(), engineWorkload(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range targets {
		if _, ok := seen[k]; !ok {
			t.Fatalf("chaos target %+v never ran in the clean campaign; fix the target cursors", k)
		}
	}
	return res, seen
}

type observed struct {
	id faultmodel.ID
	r  inject.Result
}

// subtractExperiment removes one completed experiment's contribution from
// cloned campaign tallies — building the expected "clean minus quarantined"
// result by hand.
func subtractExperiment(res *StudyResult, o observed) {
	res.Experiments--
	p := res.Masked[o.id]
	p.Trials--
	masked := o.r.Outcome == inject.Masked
	if masked {
		p.Successes--
	}
	if o.r.FaultyNeurons == 1 {
		pp := &res.Perturb.LargeFail
		if o.r.MaxPerturbation <= 100 {
			pp = &res.Perturb.SmallFail
		}
		pp.Trials--
		if !masked {
			pp.Successes--
		}
	}
}

// cloneTallies deep-copies the fields compareTallies inspects.
func cloneTallies(res *StudyResult) *StudyResult {
	c := &StudyResult{
		Experiments: res.Experiments,
		Perturb:     res.Perturb,
		Masked:      map[faultmodel.ID]*Proportion{},
	}
	for id, p := range res.Masked {
		cp := *p
		c.Masked[id] = &cp
	}
	return c
}

// compareTallies is requireEqualResults without the FIT fields, for
// comparisons against hand-adjusted expected tallies (which carry no
// recomputed FIT).
func compareTallies(t *testing.T, label string, want, got *StudyResult) {
	t.Helper()
	if want.Experiments != got.Experiments {
		t.Errorf("%s: experiments %d != %d", label, want.Experiments, got.Experiments)
	}
	for _, id := range faultmodel.AllIDs() {
		pa, pb := want.Masked[id], got.Masked[id]
		if pa.Successes != pb.Successes || pa.Trials != pb.Trials {
			t.Errorf("%s: %v tally %d/%d != %d/%d",
				label, id, pa.Successes, pa.Trials, pb.Successes, pb.Trials)
		}
	}
	if want.Perturb != got.Perturb {
		t.Errorf("%s: perturbation stats %+v != %+v", label, want.Perturb, got.Perturb)
	}
}

// TestChaosRecoversToCleanTallies injects panics and a hang into a campaign
// and requires the supervised run to produce exactly the clean run's tallies
// minus the quarantined experiments — at every worker count, under -race.
func TestChaosRecoversToCleanTallies(t *testing.T) {
	base := chaosBase()
	panicAt := map[chaosKey]bool{
		{shard: 0, cur: Cursor{Input: 0, Model: 0, Sample: 0}}: true,
		{shard: 3, cur: Cursor{Input: 0, Model: 1, Sample: 2}}: true,
		{shard: 7, cur: Cursor{Input: 1, Model: 6, Sample: 1}}: true, // GlobalControl
	}
	hangAt := chaosKey{shard: 9, cur: Cursor{Input: 1, Model: 2, Sample: 0}}
	targets := map[chaosKey]bool{hangAt: true}
	for k := range panicAt {
		targets[k] = true
	}

	clean, seen := observeClean(t, base, targets)
	expected := cloneTallies(clean)
	for k := range targets {
		subtractExperiment(expected, seen[k])
	}

	// The deadline must sit far above a legitimate experiment's duration
	// (tens of ms, but 10-100x that under -race with loaded workers): only
	// the synthetic hang may trip it, and the test trips it as soon as the
	// hang is reached — the hung experiment's timer comes out of the policy's
	// factory and its hook fires it. The hang blocks until cleanup, or for
	// twice the deadline: a watchdog that never fires lets the experiment
	// finish, which the quarantine count below catches.
	const deadline = 5 * time.Second
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	hangTimer := make(chan *time.Timer, 1)
	chaos := &chaosPolicy{
		experiment: func(shard int, cur Cursor) {
			k := chaosKey{shard, cur}
			if panicAt[k] {
				panic("chaos: synthetic panic")
			}
			if k == hangAt {
				(<-hangTimer).Reset(0)
				select {
				case <-release:
				case <-time.After(2 * deadline):
				}
			}
		},
		timer: func(shard int, cur Cursor, timeout time.Duration) *time.Timer {
			tm := time.NewTimer(timeout)
			if (chaosKey{shard, cur}) == hangAt {
				hangTimer <- tm
			}
			return tm
		},
	}

	run := func(workers int) *StudyResult {
		opts := base
		opts.Workers = workers
		opts.ExperimentTimeout = deadline
		opts.chaos = chaos
		opts.Telemetry = telemetry.New()
		res, err := Study(context.Background(), accel.NVDLASmall(), engineWorkload(t), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Partial {
			t.Errorf("workers=%d: %d quarantines within budget flagged the result partial", workers, len(res.Quarantined))
		}
		if len(res.Quarantined) != len(targets) {
			t.Fatalf("workers=%d: quarantined %d experiments, want %d: %+v",
				workers, len(res.Quarantined), len(targets), res.Quarantined)
		}
		for _, q := range res.Quarantined {
			k := chaosKey{q.Shard, q.Cursor}
			switch {
			case panicAt[k]:
				if q.Reason != ReasonPanic || q.Detail != "chaos: synthetic panic" {
					t.Errorf("workers=%d: %+v quarantined as (%s, %q), want recovered panic", workers, k, q.Reason, q.Detail)
				}
			case k == hangAt:
				if q.Reason != ReasonTimeout {
					t.Errorf("workers=%d: hung experiment quarantined as %s, want %s", workers, q.Reason, ReasonTimeout)
				}
			default:
				t.Errorf("workers=%d: unexpected quarantine %+v", workers, q)
			}
			if q.Model != seen[k].id.String() {
				t.Errorf("workers=%d: quarantine %+v names model %s, want %s", workers, k, q.Model, seen[k].id)
			}
		}
		rec := res1Recovery(t, opts.Telemetry)
		if rec.PanicsRecovered != int64(len(panicAt)) || rec.Timeouts != 1 || rec.Quarantined != int64(len(targets)) {
			t.Errorf("workers=%d: recovery counters %+v, want %d panics / 1 timeout / %d quarantined",
				workers, rec, len(panicAt), len(targets))
		}
		return res
	}

	serial := run(1)
	compareTallies(t, "chaos vs clean-minus-quarantined", expected, serial)
	requireEqualResults(t, "chaos workers=1 vs workers=8", serial, run(8))
}

// TestChaosWatchdogNeverLendsZombie plays one distrib worker through a hang:
// every shard of the chaos campaign runs through one ShardRunner, one lease
// after another, and the hung experiment's timer fires the moment the hang is
// reached. The executor the watchdog abandons to the wedged goroutine must
// never come back from the runner's idle list — the shard finishes on a new
// one, which every later lease reuses — and the shards must assemble to the
// clean run's tallies minus the hung experiment.
func TestChaosWatchdogNeverLendsZombie(t *testing.T) {
	base := chaosBase()
	hangAt := chaosKey{shard: 9, cur: Cursor{Input: 1, Model: 2, Sample: 0}}
	clean, seen := observeClean(t, base, map[chaosKey]bool{hangAt: true})
	expected := cloneTallies(clean)
	subtractExperiment(expected, seen[hangAt])

	// The deadline and the hang are TestChaosRecoversToCleanTallies's: only
	// the synthetic hang may trip the watchdog, and its timer fires at once.
	const deadline = 5 * time.Second
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	hangTimer := make(chan *time.Timer, 1)
	opts := base
	opts.ExperimentTimeout = deadline
	opts.chaos = &chaosPolicy{
		experiment: func(shard int, cur Cursor) {
			if (chaosKey{shard, cur}) == hangAt {
				(<-hangTimer).Reset(0)
				select {
				case <-release:
				case <-time.After(2 * deadline):
				}
			}
		},
		timer: func(shard int, cur Cursor, timeout time.Duration) *time.Timer {
			tm := time.NewTimer(timeout)
			if (chaosKey{shard, cur}) == hangAt {
				hangTimer <- tm
			}
			return tm
		},
	}
	cfg := accel.NVDLASmall()
	w := engineWorkload(t)
	r, err := NewShardRunner(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]ShardCheckpoint, opts.shards())
	var zombie *inject.Injector
	for s := range finals {
		if s == hangAt.shard {
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
	if len(res.Quarantined) != 1 || res.Quarantined[0].Reason != ReasonTimeout {
		t.Fatalf("quarantined %+v, want the hung experiment alone, as a timeout", res.Quarantined)
	}
	compareTallies(t, "leases through a hang vs clean-minus-quarantined", expected, res)
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

// TestChaosResumeRoundTrip interrupts a chaos-ridden campaign mid-flight and
// resumes it from the saved v2 checkpoint; the resumed run must reproduce the
// uninterrupted chaos run's StudyResult and quarantine list exactly.
func TestChaosResumeRoundTrip(t *testing.T) {
	base := chaosBase()
	base.Workers = 4
	panicAt := map[chaosKey]bool{
		{shard: 1, cur: Cursor{Input: 0, Model: 0, Sample: 1}}:  true,
		{shard: 5, cur: Cursor{Input: 0, Model: 3, Sample: 0}}:  true,
		{shard: 13, cur: Cursor{Input: 1, Model: 4, Sample: 2}}: true,
	}
	chaos := &chaosPolicy{
		experiment: func(shard int, cur Cursor) {
			if panicAt[chaosKey{shard, cur}] {
				panic("chaos: synthetic panic")
			}
		},
	}
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()

	full := base
	full.chaos = chaos
	baseline, err := Study(context.Background(), cfg, w, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Quarantined) != len(panicAt) {
		t.Fatalf("uninterrupted chaos run quarantined %d, want %d", len(baseline.Quarantined), len(panicAt))
	}

	// Interrupt a second chaos run mid-flight: the observer cancels from
	// inside the campaign once half the experiments have committed, so the
	// interrupt cannot race the campaign finishing on a loaded machine.
	ckptPath := filepath.Join(t.TempDir(), "chaos.checkpoint.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed atomic.Int64
	opts := full
	opts.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
		if committed.Add(1) == int64(baseline.Experiments)/2 {
			cancel()
		}
	}
	opts.CheckpointPath = ckptPath
	_, err = Study(ctx, cfg, w, opts)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("interrupted chaos study returned %v, want *Interrupted", err)
	}

	// Resume from the checkpoint file, chaos still active: targets not yet
	// reached fail on the resumed run; already-quarantined ones are skipped.
	saved, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Version != checkpointVersion {
		t.Errorf("saved checkpoint has version %d, want %d", saved.Version, checkpointVersion)
	}
	resume := full
	resume.Resume = saved
	res, err := Study(context.Background(), cfg, w, resume)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "chaos resume", baseline, res)
	if !reflect.DeepEqual(baseline.Quarantined, res.Quarantined) {
		t.Errorf("resumed quarantine list diverged:\nfull:   %+v\nresume: %+v",
			baseline.Quarantined, res.Quarantined)
	}
}

// TestCheckpointV1Rejected: v1 checkpoints predate quarantine tracking,
// cursor-derived sampling and the integrity envelope; loading one must fail
// loudly — unverifiable as written, a version error even when sealed — and a
// fabricated v1 Checkpoint value must never match a campaign.
func TestCheckpointV1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"version":1,"workload":"mobilenet","precision":"fp16","tolerance":0.1,` +
		`"samples":120,"inputs":2,"seed":21,"shards":16,"experiments":0,"shard":[]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCorruptArtifact) {
		t.Errorf("loading an unsealed v1 checkpoint returned %v, want ErrCorruptArtifact", err)
	}
	if err := AtomicWriteSealedJSON(path, json.RawMessage(v1)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("loading a sealed v1 checkpoint returned %v, want a version error", err)
	}

	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	opts := chaosBase()
	shards := make([]ShardCheckpoint, opts.shards())
	for i := range shards {
		shards[i] = NewShardCheckpoint(i)
	}
	cp := NewCheckpoint(cfg, w, opts, shards)
	cp.Version = 1
	if cp.Matches(cfg, w, opts) {
		t.Error("a v1 checkpoint matched a v2 campaign")
	}
	cp.Version = checkpointVersion
	if !cp.Matches(cfg, w, opts) {
		t.Error("the same checkpoint at v2 must match (test is self-consistent)")
	}
}

// TestChaosCheckpointIOErrors injects synthetic checkpoint-write failures.
// Transient ones must be absorbed by the retry loop (and counted); a
// persistent failure of the on-interrupt save must surface as an error.
func TestChaosCheckpointIOErrors(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := chaosBase()
	base.Workers = 4
	base.IOBackoff = time.Millisecond

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
		requireEqualResults(t, "resume after transient save failures", clean, res)
	})

	t.Run("persistent", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := base
		opts.IORetries = 2
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
