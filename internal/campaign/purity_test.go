package campaign

import (
	"context"
	"math"
	"sync"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

// TestExperimentPurity pins the property that makes one execution path safe:
// an experiment is a pure function of (campaign identity, shard, cursor).
// Every result a running campaign observes — executed inside a site-grouped
// or pinned window, on a warm arena, after arbitrary neighbours on one of
// four workers — must equal the same experiment re-executed alone on a fresh
// injector seeded from experimentSeed(shardSeed, cursor), both on the replay
// path and on the plain-forward oracle. Execution order, window size and
// worker scheduling therefore cannot reach any result, and a single
// (shard, cursor) is re-executable in O(1).
func TestExperimentPurity(t *testing.T) {
	cases := []struct {
		name string
		prec numerics.Precision
		opts StudyOptions
	}{
		{"flat/FP16", numerics.FP16, StudyOptions{Samples: 48, Inputs: 2, Tolerance: 0.1, Seed: 5, Workers: 4}},
		{"per-layer/INT8", numerics.INT8, StudyOptions{Samples: 16, Inputs: 1, Tolerance: 0.1, Seed: 5, Workers: 4, PerLayer: true}},
	}
	cfg := accel.NVDLASmall()
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := model.Build("mobilenet", tc.prec, 42)
			if err != nil {
				t.Fatal(err)
			}
			type observation struct {
				shard int
				cur   Cursor
				id    faultmodel.ID
				r     inject.Result
			}
			var mu sync.Mutex
			var seen []observation
			opts := tc.opts
			opts.observe = func(shard int, cur Cursor, id faultmodel.ID, r inject.Result) {
				mu.Lock()
				seen = append(seen, observation{shard, cur, id, r})
				mu.Unlock()
			}
			res, err := Study(context.Background(), cfg, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != res.Experiments || len(seen) == 0 {
				t.Fatalf("observed %d experiments, result counts %d", len(seen), res.Experiments)
			}

			for _, withReplay := range []bool{true, false} {
				goldens := make([]*inject.Golden, opts.Inputs)
				for i := range goldens {
					x, err := dataset.Sample(w.Dataset, i)
					if err != nil {
						t.Fatal(err)
					}
					if goldens[i], err = inject.TraceGolden(w, x, withReplay); err != nil {
						t.Fatal(err)
					}
				}
				for _, o := range seen {
					sampler, err := faultmodel.NewSampler(models, 0)
					if err != nil {
						t.Fatal(err)
					}
					inj := inject.New(w, sampler)
					if err := inj.PrepareGolden(goldens[o.cur.Input]); err != nil {
						t.Fatal(err)
					}
					sampler.Reseed(experimentSeed(shardSeed(opts.Seed, o.shard), o.cur))
					var got inject.Result
					if opts.PerLayer && o.id != faultmodel.GlobalControl {
						got, err = inj.RunAt(context.Background(), o.cur.Exec, o.id, opts.Tolerance)
					} else {
						got, err = inj.Run(context.Background(), o.id, opts.Tolerance)
					}
					if err != nil {
						t.Fatalf("replay=%v shard %d cursor %+v: %v", withReplay, o.shard, o.cur, err)
					}
					if !sameOutcome(o.r, got) {
						t.Fatalf("replay=%v shard %d cursor %+v %s: campaign observed %+v, alone it yields %+v",
							withReplay, o.shard, o.cur, o.id, o.r, got)
					}
					if ranForward := o.id != faultmodel.GlobalControl; got.Replayed != (withReplay && ranForward) {
						t.Fatalf("replay=%v %s: Result.Replayed = %v", withReplay, o.id, got.Replayed)
					}
				}
			}
		})
	}
}

// sameOutcome compares everything of two Results that belongs to the
// experiment's outcome; the Replay and Harden blocks are run-cost telemetry
// (arena warmth differs between a campaign and a lone re-execution).
func sameOutcome(a, b inject.Result) bool {
	sameFloat := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return a.Outcome == b.Outcome && a.Model == b.Model && a.Site == b.Site &&
		a.FaultyNeurons == b.FaultyNeurons &&
		sameFloat(a.MaxPerturbation, b.MaxPerturbation) && sameFloat(a.Score, b.Score)
}
