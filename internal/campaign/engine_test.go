package campaign

import (
	"context"
	"errors"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
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
	requireSameJSON(t, "empty-checkpoint resume", marshal(t, fresh), res)
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
	want := marshal(t, fresh)
	requireSameJSON(t, "mismatched checkpoint ignored", want, res)

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
	requireSameJSON(t, "misplaced shards ignored", want, res)
}
