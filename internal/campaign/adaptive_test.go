package campaign

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/telemetry"
)

// The adaptive engine's own checks. Its determinism contract — StudyResult
// JSON is a pure function of (Seed, Shards, TargetCI), never of Workers, the
// window or where an interrupt landed — is TestConformance's, for flat
// strata; per-layer strata are held to it here.

// TestAdaptivePerLayerDeterminism: per-layer strata (the mode the paper's
// Eq. 2 needs) keep the same worker-count independence. Their windows pin
// their site, so nothing is grouped: no batch telemetry.
func TestAdaptivePerLayerDeterminism(t *testing.T) {
	w := engineWorkload(t)
	base := StudyOptions{TargetCI: 0.3, Inputs: 1, Tolerance: 0.1, Seed: 11, Shards: 4, PerLayer: true}

	var want []byte
	for _, workers := range []int{1, 3} {
		opts := base
		opts.Workers, opts.Telemetry = workers, telemetry.New()
		res, err := Study(context.Background(), accel.NVDLASmall(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if b := opts.Telemetry.Snapshot().Batch; b != nil {
			t.Errorf("per-layer study produced a telemetry Batch block: %+v", b)
		}
		if want == nil {
			want = marshal(t, res)
			continue
		}
		requireSameJSON(t, fmt.Sprintf("per-layer adaptive StudyResult at Workers=%d", workers), want, res)
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
