package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// engineWorkload builds the cheapest workload for engine-behavior tests.
func engineWorkload(t *testing.T) *model.Workload {
	t.Helper()
	w, err := model.Build("mobilenet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// requireEqualResults asserts two study results carry identical tallies and
// FIT rates — the determinism contract of the campaign engine.
func requireEqualResults(t *testing.T, label string, a, b *StudyResult) {
	t.Helper()
	if a.Experiments != b.Experiments {
		t.Errorf("%s: experiments %d != %d", label, a.Experiments, b.Experiments)
	}
	for _, id := range faultmodel.AllIDs() {
		pa, pb := a.Masked[id], b.Masked[id]
		if pa.Successes != pb.Successes || pa.Trials != pb.Trials {
			t.Errorf("%s: %v tally %d/%d != %d/%d",
				label, id, pa.Successes, pa.Trials, pb.Successes, pb.Trials)
		}
	}
	if a.Perturb != b.Perturb {
		t.Errorf("%s: perturbation stats %+v != %+v", label, a.Perturb, b.Perturb)
	}
	if a.FIT.Total != b.FIT.Total {
		t.Errorf("%s: FIT %v != %v", label, a.FIT.Total, b.FIT.Total)
	}
	if a.FITProtected.Total != b.FITProtected.Total {
		t.Errorf("%s: protected FIT %v != %v", label, a.FITProtected.Total, b.FITProtected.Total)
	}
}

// TestStudyWorkerDeterminism is the engine's central invariant: experiments
// are partitioned onto logical shards, not workers, so the worker count only
// changes wall-clock time — never the tallies. Run with -race to also catch
// data races between the shard workers.
func TestStudyWorkerDeterminism(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 120, Inputs: 2, Tolerance: 0.1, Seed: 9}

	run := func(workers int) *StudyResult {
		opts := base
		opts.Workers = workers
		res, err := Study(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{4, 16} {
		requireEqualResults(t, "workers=1 vs workers=4+", serial, run(workers))
	}
}

// TestStudyInterruptResume interrupts a campaign mid-flight, then resumes it —
// from the in-memory checkpoint, from the auto-saved checkpoint file, and from
// an explicit Save/LoadCheckpoint round trip — and requires every resumed run
// to reproduce the uninterrupted StudyResult exactly, running only the
// experiments the checkpoint had not done.
func TestStudyInterruptResume(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 240, Inputs: 2, Tolerance: 0.1, Seed: 11, Workers: 4}

	baseline, err := Study(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt mid-flight from inside the campaign: the experiment hook
	// cancels as the 200th experiment starts, so the rest cannot finish first
	// however fast they run.
	ckptPath := filepath.Join(t.TempDir(), "study.checkpoint.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	opts := base
	opts.CheckpointPath = ckptPath
	opts.chaos = &chaosPolicy{experiment: func(int, Cursor) {
		if started.Add(1) == 200 {
			cancel()
		}
	}}
	_, err = Study(ctx, cfg, w, opts)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("interrupted study returned %v, want *Interrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Interrupted must unwrap to context.Canceled, got %v", err)
	}
	cp := intr.Checkpoint
	if cp.Experiments <= 0 || cp.Experiments >= baseline.Experiments {
		t.Fatalf("checkpoint holds %d experiments, want mid-campaign (0, %d)",
			cp.Experiments, baseline.Experiments)
	}
	if intr.Path != ckptPath {
		t.Errorf("Interrupted.Path = %q, want %q", intr.Path, ckptPath)
	}

	// resume continues from cp and must reach the uninterrupted result by
	// running only the experiments cp has not done: a resume that restarts
	// from zero reaches the same result, but runs them all.
	resume := func(label string, cp *Checkpoint) {
		t.Helper()
		opts := base
		opts.Resume = cp
		opts.Telemetry = telemetry.New()
		res, err := Study(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, label, baseline, res)
		if ran, want := opts.Telemetry.Experiments(), int64(baseline.Experiments-cp.Experiments); ran != want {
			t.Errorf("%s: ran %d experiments, want the %d the checkpoint had not done", label, ran, want)
		}
	}
	resume("in-memory resume", cp)

	// Resume from the checkpoint file Study saved on cancellation.
	saved, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	resume("auto-saved file resume", saved)

	// Explicit Save → LoadCheckpoint round trip.
	rtPath := filepath.Join(t.TempDir(), "roundtrip.json")
	if err := cp.Save(rtPath); err != nil {
		t.Fatal(err)
	}
	rt, err := LoadCheckpoint(rtPath)
	if err != nil {
		t.Fatal(err)
	}
	resume("save/load round trip resume", rt)
}

// TestStudyCancelBeforeStart: a context cancelled before the first experiment
// yields an empty (but well-formed, resumable) checkpoint.
func TestStudyCancelBeforeStart(t *testing.T) {
	w := engineWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := StudyOptions{Samples: 40, Inputs: 2, Tolerance: 0.1, Seed: 3}
	_, err := Study(ctx, accel.NVDLASmall(), w, base)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("got %v, want *Interrupted", err)
	}
	if intr.Checkpoint.Experiments != 0 {
		t.Errorf("pre-cancelled study ran %d experiments", intr.Checkpoint.Experiments)
	}
	resume := base
	resume.Resume = intr.Checkpoint
	res, err := Study(context.Background(), accel.NVDLASmall(), w, resume)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Study(context.Background(), accel.NVDLASmall(), w, base)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "empty-checkpoint resume vs fresh", fresh, res)
}

// TestStudyMismatchedResumeIgnored: a checkpoint from a different campaign
// must not contaminate the study — it is ignored and the run starts fresh.
func TestStudyMismatchedResumeIgnored(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 40, Inputs: 2, Tolerance: 0.1, Seed: 3}

	fresh, err := Study(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate a mid-flight checkpoint of a *different* campaign (other
	// seed and sample count) by cancelling it immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	other := base
	other.Seed, other.Samples = 99, 80
	_, err = Study(ctx, cfg, w, other)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("got %v, want *Interrupted", err)
	}

	resume := base
	resume.Resume = intr.Checkpoint
	res, err := Study(context.Background(), cfg, w, resume)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "mismatched checkpoint ignored", fresh, res)

	// This campaign's own mid-flight checkpoint with two shard states swapped:
	// the identity matches, the shards do not sit in their places. Resuming it
	// used to rerun shard 0 and take its tallies for shard 15's as well.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	mid := base
	mid.Workers = 1
	count := 0
	mid.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
		if count++; count == 100 {
			cancel()
		}
	}
	_, err = Study(ctx, cfg, w, mid)
	if !errors.As(err, &intr) {
		t.Fatalf("got %v, want *Interrupted", err)
	}
	cp := intr.Checkpoint
	if cp.Shard[0].Experiments == 0 || cp.Shard[15].Experiments != 0 {
		t.Fatalf("fixture: shard 0 ran %d experiments, shard 15 %d; want some and none", cp.Shard[0].Experiments, cp.Shard[15].Experiments)
	}
	cp.Shard[0], cp.Shard[15] = cp.Shard[15], cp.Shard[0]
	if cp.Matches(cfg, w, base) {
		t.Error("a checkpoint with misplaced shards matches its campaign")
	}
	resume.Resume = cp
	if res, err = Study(context.Background(), cfg, w, resume); err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "misplaced shards ignored", fresh, res)
}

// TestCheckpointConfigFingerprint: a checkpoint pins the accelerator config
// by fingerprint — resuming the same campaign options under a different
// design must not reuse it, since the results are a function of the config.
func TestCheckpointConfigFingerprint(t *testing.T) {
	w := engineWorkload(t)
	cfgA := accel.NVDLASmall()
	base := StudyOptions{Samples: 40, Inputs: 2, Tolerance: 0.1, Seed: 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Study(ctx, cfgA, w, base)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("got %v, want *Interrupted", err)
	}
	cp := intr.Checkpoint
	if cp.Config != cfgA.Fingerprint() {
		t.Errorf("checkpoint config %q, want fingerprint %q", cp.Config, cfgA.Fingerprint())
	}
	if !cp.Matches(cfgA, w, base) {
		t.Error("checkpoint rejects the config that produced it")
	}
	cfgB := *cfgA
	cfgB.NumFFs++
	if cp.Matches(&cfgB, w, base) {
		t.Error("checkpoint accepted a different accelerator config")
	}
}

// TestStudyTelemetryCounts: the collector's experiment counter and per-model
// outcome tallies must agree with the StudyResult.
func TestStudyTelemetryCounts(t *testing.T) {
	w := engineWorkload(t)
	tel := telemetry.New()
	opts := StudyOptions{Samples: 40, Inputs: 2, Tolerance: 0.1, Seed: 5, Workers: 4, Telemetry: tel}
	res, err := Study(context.Background(), accel.NVDLASmall(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Experiments(); got != int64(res.Experiments) {
		t.Errorf("telemetry experiments = %d, result = %d", got, res.Experiments)
	}
	snap := tel.Snapshot()
	if len(snap.Models) != len(faultmodel.AllIDs()) {
		t.Errorf("telemetry models = %d, want %d", len(snap.Models), len(faultmodel.AllIDs()))
	}
	var phases []string
	for _, p := range snap.Phases {
		phases = append(phases, p.Name)
	}
	for _, want := range []string{"trace", "inject", "fit"} {
		found := false
		for _, p := range phases {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("phase %q missing from telemetry (have %v)", want, phases)
		}
	}
}
