package campaign

import (
	"context"
	"runtime"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

// A fixed study's experiments allocate nothing: on one input and one shard,
// a study of 2N samples per model makes at most 0.01 more mallocs per extra
// experiment than one of N, both after a first study has warmed the
// workload. So what the benchmark's traced campaign.mallocs_per_exp reads is
// the campaign's setup (the golden trace, the executor, the shard state)
// spread over few experiments, not a cost of each one. A smaller N lets the
// replay arena's growth, which saturates, show on resnet.
func TestFixedStudyAllocsPerExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine studies")
	}
	const n = 640
	cfg := accel.NVDLASmall()
	for _, net := range []string{"mobilenet", "resnet", "transformer"} {
		w, err := model.Build(net, numerics.FP16, 42)
		if err != nil {
			t.Fatal(err)
		}
		study := func(samples int) (mallocs uint64, experiments int) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Study(context.Background(), cfg, w, StudyOptions{Samples: samples, Inputs: 1, Tolerance: 0.1, Seed: 1, Shards: 1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.Mallocs - before.Mallocs, res.Experiments
		}
		study(16) // warm the workload's lazily built caches
		m1, e1 := study(n)
		m2, e2 := study(2 * n)
		if e2 <= e1 {
			t.Fatalf("%s: %d experiments at %d samples, %d at %d", net, e1, n, e2, 2*n)
		}
		per := (float64(m2) - float64(m1)) / float64(e2-e1)
		t.Logf("%s: %d mallocs over %d experiments, %d over %d: %.4f per extra experiment", net, m1, e1, m2, e2, per)
		if per > 0.01 {
			t.Errorf("%s: %.4f mallocs per extra experiment, want ≤ 0.01", net, per)
		}
	}
}
