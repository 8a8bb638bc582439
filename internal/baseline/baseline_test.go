package baseline

import (
	"context"
	"errors"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

func TestRunValidation(t *testing.T) {
	w, _ := model.Build("resnet", numerics.FP16, 1)
	if _, err := Run(context.Background(), accel.NVDLASmall(), w, Options{Samples: 0, Inputs: 1}); err == nil {
		t.Error("zero samples should fail")
	}
	bad := accel.NVDLASmall()
	bad.NumFFs = 0
	if _, err := Run(context.Background(), bad, w, Options{Samples: 1, Inputs: 1}); err == nil {
		t.Error("invalid config should fail")
	}
}

// A context cancelled before the call stops Run before its first experiment.
func TestRunCancelled(t *testing.T) {
	w, err := model.Build("resnet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, accel.NVDLASmall(), w, Options{Samples: 60, Inputs: 2, Tolerance: 0.1, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Experiments != 0 {
		t.Errorf("%d experiments ran after cancellation", res.Experiments)
	}
}

func TestNaiveCampaign(t *testing.T) {
	w, err := model.Build("resnet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), accel.NVDLASmall(), w, Options{Samples: 60, Inputs: 2, Tolerance: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments != 60 {
		t.Errorf("experiments = %d", res.Experiments)
	}
	m := res.Masked.Mean()
	if m <= 0.3 {
		t.Errorf("naive single-bit flips should be mostly masked in a CNN, got %v", m)
	}
	if res.FIT <= 0 {
		t.Error("naive FIT must be positive")
	}
}

// Sec. VI shape: the naive technique underestimates the FIdelity FIT
// substantially (the paper reports up to 25×), because it ignores reuse and
// control effects.
func TestNaiveUnderestimatesFIdelity(t *testing.T) {
	w, err := model.Build("resnet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	naive, err := Run(context.Background(), cfg, w, Options{Samples: 50, Inputs: 2, Tolerance: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	study, err := campaign.Study(context.Background(), cfg, w, campaign.StudyOptions{
		Samples: 25, Inputs: 2, Tolerance: 0.1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	factor := Underestimate(study.FIT.Total, naive)
	if factor <= 1.5 {
		t.Errorf("naive technique should underestimate FIT by well over 1.5x, got %.2fx", factor)
	}
	t.Logf("naive FIT=%.3f, FIdelity FIT=%.3f, underestimate=%.1fx",
		naive.FIT, study.FIT.Total, factor)
}

func TestUnderestimateZero(t *testing.T) {
	if Underestimate(1, &Result{}) != 0 {
		t.Error("zero naive FIT should return 0")
	}
}
