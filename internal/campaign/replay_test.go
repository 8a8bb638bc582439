package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// The differential equivalence suite for the incremental golden-replay
// engine. Replay must be a pure performance optimization: every StudyResult
// and checkpoint it produces must be byte-identical to the oracle's, for
// every zoo topology (sequential CNNs, inception branches, residual
// shortcuts, attention DAGs, LSTM revisits) at every datapath precision.

var replayPrecisions = []numerics.Precision{numerics.FP16, numerics.INT16, numerics.INT8}

// oracleStudy runs Study on the campaign-level oracle — every experiment a
// plain full forward pass, one per window, on the frozen reference kernels.
// It is the reference the production path (replay, region sweeps, tiled
// kernels, site-grouped windows) must match byte for byte, reachable only
// through the unexported test seams.
func oracleStudy(ctx context.Context, cfg *accel.Config, w *model.Workload, opts StudyOptions) (*StudyResult, error) {
	nn.SetReferenceKernels(true)
	defer nn.SetReferenceKernels(false)
	opts.oracle = true
	opts.window = 1
	return Study(ctx, cfg, w, opts)
}

// studyFunc is the shared signature of Study and oracleStudy.
type studyFunc func(context.Context, *accel.Config, *model.Workload, StudyOptions) (*StudyResult, error)

// TestReplayDifferentialZoo runs the same small study on the production path
// and on the oracle for every zoo network × precision and requires
// byte-identical StudyResult JSON (tallies, CIs, FIT bounds, perturbation
// stats — everything).
func TestReplayDifferentialZoo(t *testing.T) {
	cfg := accel.NVDLASmall()
	for _, name := range model.Names() {
		for _, prec := range replayPrecisions {
			t.Run(name+"/"+prec.String(), func(t *testing.T) {
				w, err := model.Build(name, prec, 42)
				if err != nil {
					t.Fatal(err)
				}
				opts := StudyOptions{Samples: 5, Inputs: 1, Tolerance: 0.1, Seed: 7, Workers: 4}
				on, err := Study(context.Background(), cfg, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				off, err := oracleStudy(context.Background(), cfg, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, "replay vs oracle", on, off)
				bon, err := json.Marshal(on)
				if err != nil {
					t.Fatal(err)
				}
				boff, err := json.Marshal(off)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bon, boff) {
					t.Errorf("StudyResult JSON differs between replay and the oracle:\nreplay: %s\noracle: %s", bon, boff)
				}
			})
		}
	}
}

// TestReplayDifferentialInputSwitch holds the replay path to the oracle where
// its executors switch inputs most: a per-layer adaptive INT8 campaign on two
// inputs, whose every stratum alternates between them, so each shard's
// executor rebinds its arena to the other input's trace again and again. The
// StudyResult must be byte-identical at Workers 1 and 4, and a checkpoint cut
// at the same experiment byte-identical too, resuming at Workers 4 to the
// uninterrupted result.
func TestReplayDifferentialInputSwitch(t *testing.T) {
	w, err := model.Build("inception", numerics.INT8, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	base := StudyOptions{TargetCI: 0.3, Inputs: 2, Tolerance: 0.1, Seed: 7, Shards: 4, PerLayer: true}
	want := studyJSONWith(t, oracleStudy, w, base)
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Workers = workers
		if got := studyJSON(t, w, opts); !bytes.Equal(got, want) {
			t.Errorf("Workers=%d: StudyResult JSON differs between replay and the oracle:\nreplay: %s\noracle: %s", workers, got, want)
		}
	}

	cut := func(study studyFunc) *Checkpoint {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := base
		opts.Workers = 1
		count := 0
		opts.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
			if count++; count == 300 {
				cancel()
			}
		}
		_, err := study(ctx, cfg, w, opts)
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("interrupted study returned %v, want *Interrupted", err)
		}
		return intr.Checkpoint
	}
	cpOn, cpOff := cut(Study), cut(oracleStudy)
	bOn, err := json.Marshal(cpOn)
	if err != nil {
		t.Fatal(err)
	}
	bOff, err := json.Marshal(cpOff)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bOn, bOff) {
		t.Errorf("checkpoints differ between replay and the oracle:\nreplay: %s\noracle: %s", bOn, bOff)
	}
	opts := base
	opts.Workers = 4
	opts.Resume = cpOn
	if got := studyJSON(t, w, opts); !bytes.Equal(got, want) {
		t.Errorf("replay checkpoint resumed at Workers=4 differs from the oracle:\nresumed: %s\noracle:  %s", got, want)
	}
}

// TestReplayCheckpointIdentity interrupts the same campaign deterministically
// on the replay path and on the oracle, requires the two checkpoints to be
// byte-identical, and then cross-resumes each checkpoint on the opposite
// path — both must reproduce the uninterrupted result exactly.
func TestReplayCheckpointIdentity(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 160, Inputs: 2, Tolerance: 0.1, Seed: 13, Workers: 1}

	baseline, err := Study(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}

	// Workers=1 plus a synchronous per-experiment observer makes the
	// interruption point exact: both modes stop after the same experiments.
	interrupt := func(study studyFunc) *Checkpoint {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := base
		count := 0
		opts.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
			if count++; count == 100 {
				cancel()
			}
		}
		_, err := study(ctx, cfg, w, opts)
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("interrupted study returned %v, want *Interrupted", err)
		}
		return intr.Checkpoint
	}
	cpOn := interrupt(Study)
	cpOff := interrupt(oracleStudy)
	bOn, err := json.Marshal(cpOn)
	if err != nil {
		t.Fatal(err)
	}
	bOff, err := json.Marshal(cpOff)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bOn, bOff) {
		t.Errorf("checkpoints differ between replay and the oracle:\nreplay: %s\noracle: %s", bOn, bOff)
	}

	// The execution path is not part of the checkpoint identity: resuming on
	// the opposite one must finish to the same result.
	resume := func(label string, cp *Checkpoint, study studyFunc) {
		t.Helper()
		opts := base
		opts.Resume = cp
		res, err := study(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEqualResults(t, label, baseline, res)
	}
	resume("replay checkpoint resumed on the oracle", cpOn, oracleStudy)
	resume("oracle checkpoint resumed on the replay path", cpOff, Study)
}

// TestReplayTelemetryPresence checks the telemetry Replay block: present
// (with sane ratios) when the replay engine ran, absent entirely on the
// oracle, which never builds a replay context.
func TestReplayTelemetryPresence(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 3}

	tel := telemetry.New()
	opts := base
	opts.Telemetry = tel
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	rep := tel.Snapshot().Replay
	if rep == nil {
		t.Fatal("replay-enabled study produced no telemetry Replay block")
	}
	if rep.LayersSkipped <= 0 {
		t.Errorf("LayersSkipped = %d, want > 0", rep.LayersSkipped)
	}
	if rep.CacheHitRatio <= 0 || rep.CacheHitRatio > 1 {
		t.Errorf("CacheHitRatio = %v, want in (0, 1]", rep.CacheHitRatio)
	}
	if rep.ArenaReuses <= 0 {
		t.Errorf("ArenaReuses = %d, want > 0", rep.ArenaReuses)
	}
	if rep.MACsAvoidedEst <= 0 {
		t.Errorf("MACsAvoidedEst = %v, want > 0", rep.MACsAvoidedEst)
	}

	tel = telemetry.New()
	opts = base
	opts.Telemetry = tel
	if _, err := oracleStudy(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().Replay; got != nil {
		t.Errorf("oracle study produced a telemetry Replay block: %+v", got)
	}
}
