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

// The differential equivalence suite for the tiled-kernel + dirty-region +
// site-grouped-window optimization stack. Every layer of the stack must be a
// pure performance optimization: StudyResult JSON and checkpoints must be
// byte-identical across all of
//
//   - tiled kernels vs the frozen reference kernels,
//   - replay with dirty-region sweeps vs the plain-forward oracle,
//   - any experiment window size, down to one experiment per window,
//
// including under deterministic interruption and cross-mode resume.

// studyJSON runs a study and marshals its result.
func studyJSON(t *testing.T, w *model.Workload, opts StudyOptions) []byte {
	t.Helper()
	return studyJSONWith(t, Study, w, opts)
}

func studyJSONWith(t *testing.T, study studyFunc, w *model.Workload, opts StudyOptions) []byte {
	t.Helper()
	res, err := study(context.Background(), accel.NVDLASmall(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchTilingDifferential compares the production configuration (tiled
// kernels, replay with region sweeps, the default window) against the oracle
// (reference kernels, plain full forward, one experiment per window) and the
// intermediate points, requiring byte-identical StudyResult JSON for every
// zoo topology at FP16 plus mobilenet across the integer precisions.
func TestBatchTilingDifferential(t *testing.T) {
	type config struct {
		name   string
		ref    bool // reference (pre-tiling) kernels
		window int  // 0 = experimentWindow
		study  studyFunc
	}
	configs := []config{
		{"optimized", false, 0, Study},
		{"reference-kernels", true, 0, Study},
		{"window-1", false, 1, Study},
		{"window-5", false, 5, Study},
		{"oracle", false, 0, oracleStudy},
	}
	type cell struct {
		net  string
		prec numerics.Precision
	}
	var cells []cell
	for _, name := range model.Names() {
		cells = append(cells, cell{name, numerics.FP16})
	}
	cells = append(cells, cell{"mobilenet", numerics.INT16}, cell{"mobilenet", numerics.INT8})
	for _, cell := range cells {
		t.Run(cell.net+"/"+cell.prec.String(), func(t *testing.T) {
			w, err := model.Build(cell.net, cell.prec, 42)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, c := range configs {
				opts := StudyOptions{Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 7, Workers: 4, window: c.window}
				nn.SetReferenceKernels(c.ref)
				got := studyJSONWith(t, c.study, w, opts)
				nn.SetReferenceKernels(false)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Errorf("StudyResult JSON differs for %s:\noptimized: %s\n%s: %s",
						c.name, want, c.name, got)
				}
			}
		})
	}
}

// TestBatchCheckpointIdentity interrupts the same campaign deterministically
// under a 16-experiment window and under one experiment per window, requires
// byte-identical checkpoints, and then cross-resumes each checkpoint under
// the opposite window — both resumes must reproduce the uninterrupted result
// exactly. This is the proof that windows commit at experiment boundaries
// only: an interrupt can never surface a half-committed window.
func TestBatchCheckpointIdentity(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 160, Inputs: 2, Tolerance: 0.1, Seed: 13, Workers: 1}

	baseline, err := Study(context.Background(), cfg, w, base)
	if err != nil {
		t.Fatal(err)
	}

	// Workers=1 plus a synchronous observer makes the interruption point
	// exact: both modes stop after the same committed experiments. The
	// cancellation lands mid-window for the windowed run (window 16, stop at
	// 100 observes), exercising the partial-window discard path.
	interrupt := func(window int) *Checkpoint {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := base
		opts.window = window
		count := 0
		opts.observe = func(int, Cursor, faultmodel.ID, inject.Result) {
			if count++; count == 100 {
				cancel()
			}
		}
		_, err := Study(ctx, cfg, w, opts)
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("window=%d: interrupted study returned %v, want *Interrupted", window, err)
		}
		return intr.Checkpoint
	}
	cpWindowed := interrupt(16)
	cpSeq := interrupt(1)
	bWindowed, err := json.Marshal(cpWindowed)
	if err != nil {
		t.Fatal(err)
	}
	bSeq, err := json.Marshal(cpSeq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bWindowed, bSeq) {
		t.Errorf("checkpoints differ between windowed and one-at-a-time interrupt:\nwindowed: %s\nseq:      %s",
			bWindowed, bSeq)
	}

	// The window is deliberately not part of the checkpoint identity:
	// resuming under either size must finish to the same result.
	resume := func(label string, cp *Checkpoint, window int) {
		t.Helper()
		opts := base
		opts.window = window
		opts.Resume = cp
		res, err := Study(context.Background(), cfg, w, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEqualResults(t, label, baseline, res)
	}
	resume("windowed checkpoint resumed one at a time", cpWindowed, 1)
	resume("one-at-a-time checkpoint resumed windowed", cpSeq, 16)
}

// TestBatchTelemetryPresence checks the batch telemetry block: flat windows
// report site groups bounded by the experiments they ran, and a per-layer
// campaign — whose windows pin their site, so nothing is grouped — reports
// no block at all.
func TestBatchTelemetryPresence(t *testing.T) {
	w := engineWorkload(t)
	cfg := accel.NVDLASmall()
	base := StudyOptions{Samples: 24, Inputs: 1, Tolerance: 0.1, Seed: 3}

	tel := telemetry.New()
	opts := base
	opts.Telemetry = tel
	opts.window = 8
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	bs := tel.Snapshot().Batch
	if bs == nil {
		t.Fatal("flat study produced no telemetry Batch block")
	}
	if bs.Batches <= 0 || bs.Experiments <= 0 {
		t.Errorf("batch counters not populated: %+v", bs)
	}
	if bs.SiteGroups <= 0 || bs.SiteGroups > bs.Experiments {
		t.Errorf("SiteGroups = %d, want in (0, %d]", bs.SiteGroups, bs.Experiments)
	}
	if ks := tel.Snapshot().Kernels; ks == nil || ks.Tiles <= 0 {
		t.Errorf("tiled-kernel telemetry missing or zero: %+v", ks)
	}

	tel = telemetry.New()
	opts = base
	opts.Telemetry = tel
	opts.PerLayer = true
	if _, err := Study(context.Background(), cfg, w, opts); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().Batch; got != nil {
		t.Errorf("per-layer study produced a telemetry Batch block: %+v", got)
	}
}
