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
	"fidelity/internal/telemetry"
)

// The adaptive-sampling differential suite. The adaptive engine's determinism
// contract mirrors the fixed-count engine's: StudyResult JSON is a pure
// function of (Seed, Shards, TargetCI) — never of Workers, the batch window,
// or where an interrupt landed.

// TestAdaptiveWorkerDeterminism: the round-barrier design must make adaptive
// results byte-identical across worker counts, and independent of the
// experiment batch window.
func TestAdaptiveWorkerDeterminism(t *testing.T) {
	w := engineWorkload(t)
	base := StudyOptions{TargetCI: 0.15, Inputs: 2, Tolerance: 0.1, Seed: 9, Shards: 8}

	var want []byte
	for _, workers := range []int{1, 2, 4} {
		opts := base
		opts.Workers = workers
		got := studyJSON(t, w, opts)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("adaptive StudyResult JSON differs at Workers=%d:\nworkers=1: %s\nworkers=%d: %s",
				workers, want, workers, got)
		}
	}
	// The window is an execution-order optimization in adaptive rounds too:
	// one experiment per window must match exactly.
	opts := base
	opts.Workers = 4
	opts.window = 1
	if got := studyJSON(t, w, opts); !bytes.Equal(want, got) {
		t.Errorf("adaptive StudyResult JSON differs at window 1:\nwindow 64: %s\nwindow 1:  %s", want, got)
	}
}

// TestAdaptiveInterruptResume: an adaptive campaign interrupted at an
// arbitrary experiment boundary must resume from its checkpoint (format v3,
// carrying the round history) to the byte-identical result of an
// uninterrupted run — including when the interrupt lands at a round barrier.
func TestAdaptiveInterruptResume(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{TargetCI: 0.15, Inputs: 2, Tolerance: 0.1, Seed: 9, Shards: 8}

	baseline, err := Study(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}

	for _, stopAt := range []int{25, 150} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := base
		opts.Workers = 1
		count := 0
		opts.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
			if count++; count == stopAt {
				cancel()
			}
		}
		_, err := Study(ctx, cfg, w, opts)
		cancel()
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("stopAt=%d: interrupted adaptive study returned %v, want *Interrupted", stopAt, err)
		}

		resume := base
		resume.Workers = 3
		resume.Resume = intr.Checkpoint
		res, err := Study(context.Background(), cfg, w, resume)
		if err != nil {
			t.Fatalf("stopAt=%d: resume: %v", stopAt, err)
		}
		gotJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("stopAt=%d: resumed adaptive result differs:\nbaseline: %s\nresumed:  %s",
				stopAt, wantJSON, gotJSON)
		}
	}
}

// TestAdaptivePerLayerDeterminism: per-layer strata (the mode the paper's
// Eq. 2 needs) keep the same worker-count independence.
func TestAdaptivePerLayerDeterminism(t *testing.T) {
	w := engineWorkload(t)
	base := StudyOptions{TargetCI: 0.3, Inputs: 1, Tolerance: 0.1, Seed: 11, Shards: 4, PerLayer: true}

	var want []byte
	for _, workers := range []int{1, 3} {
		opts := base
		opts.Workers = workers
		got := studyJSON(t, w, opts)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("per-layer adaptive StudyResult JSON differs at Workers=%d", workers)
		}
	}
}

// TestAdaptiveReachesTarget: when the campaign converges, every stratum has
// either met the target half-width or spent the worst-case bound — the
// stopping rule's correctness, read back through the telemetry strata block.
func TestAdaptiveReachesTarget(t *testing.T) {
	w := engineWorkload(t)
	const target = 0.15
	tel := telemetry.New()
	opts := StudyOptions{TargetCI: target, Inputs: 1, Tolerance: 0.1, Seed: 5, Shards: 8, Workers: 4, Telemetry: tel}
	res, err := Study(context.Background(), accel.NVDLASmall(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments <= 0 {
		t.Fatal("adaptive study ran no experiments")
	}
	st := tel.Snapshot().Strata
	if st == nil {
		t.Fatal("adaptive study produced no telemetry Strata block")
	}
	if st.Rounds < 1 || st.TargetCI != target {
		t.Errorf("strata snapshot header = %d rounds, target %v; want >=1 rounds, target %v",
			st.Rounds, st.TargetCI, target)
	}
	bound := SamplesFor(target)
	for _, s := range st.Strata {
		if !s.Stopped {
			t.Errorf("stratum %s/exec=%d still active after convergence", s.Model, s.Exec)
		}
		if s.HalfWidth > target && s.N < bound {
			t.Errorf("stratum %s/exec=%d stopped at half-width %.4f (n=%d) above target %v with budget left (bound %d)",
				s.Model, s.Exec, s.HalfWidth, s.N, target, bound)
		}
	}
}

// TestAdaptiveValidation: the sampling rule — mutual exclusion, ranges,
// positivity — rejects a campaign before it starts and names the option at
// fault, which is what the CLI and the wire spec report.
func TestAdaptiveValidation(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	cases := []struct {
		name   string
		opts   StudyOptions
		option string
	}{
		{"both modes", StudyOptions{Samples: 10, TargetCI: 0.1, Inputs: 1, Tolerance: 0.1}, "samples"},
		{"target too wide", StudyOptions{TargetCI: 0.6, Inputs: 1, Tolerance: 0.1}, "target-ci"},
		{"negative target", StudyOptions{Samples: 10, TargetCI: -0.1, Inputs: 1, Tolerance: 0.1}, "target-ci"},
		{"adaptive without inputs", StudyOptions{TargetCI: 0.1, Tolerance: 0.1}, "inputs"},
		{"no samples", StudyOptions{Inputs: 1, Tolerance: 0.1}, "samples"},
		{"fixed without inputs", StudyOptions{Samples: 10, Tolerance: 0.1}, "inputs"},
		{"negative shards", StudyOptions{Samples: 10, Inputs: 1, Shards: -1, Tolerance: 0.1}, "shards"},
	}
	for _, tc := range cases {
		_, err := Study(context.Background(), cfg, w, tc.opts)
		var bad *OptionError
		if !errors.As(err, &bad) || bad.Option != tc.option {
			t.Errorf("%s: Study(%+v) = %v, want an OptionError naming %q", tc.name, tc.opts, err, tc.option)
		}
	}
}

// TestAdaptiveOffUnchanged: with TargetCI zero the engine must take the
// fixed-count path bit-for-bit — the adaptive machinery (run dispatch, window
// stride, the shared Schedule) is invisible to fixed-count campaigns.
func TestAdaptiveOffUnchanged(t *testing.T) {
	w := engineWorkload(t)
	base := StudyOptions{Samples: 24, Inputs: 2, Tolerance: 0.1, Seed: 7, Shards: 8}

	var want []byte
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Workers = workers
		got := studyJSON(t, w, opts)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("fixed-count StudyResult JSON differs at Workers=%d", workers)
		}
	}
}
