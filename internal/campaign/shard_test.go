package campaign

import (
	"context"
	"errors"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

// TestShardRunnerTracesGoldenOncePerInput plays one distrib worker: every
// shard of a campaign through a single ShardRunner, one lease after another,
// one shard in two leases (cancelled mid-shard, then resumed from the
// checkpoint it returned). The runner must call inject.TraceGolden once per
// input — not once per lease, as a fresh RunShard per lease does — and the
// shards must assemble to the bytes Study produces.
func TestShardRunnerTracesGoldenOncePerInput(t *testing.T) {
	w, err := model.Build("mobilenet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	opts := StudyOptions{Samples: 240, Inputs: 3, Tolerance: 0.1, Seed: 9, Shards: 8}
	res, err := Study(context.Background(), cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, res)

	const splitShard, splitAfter = 3, 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	leased := opts
	leased.observe = func(shard int, _ Cursor, _ faultmodel.ID, _ inject.Result) {
		if shard == splitShard {
			if seen++; seen == splitAfter {
				cancel()
			}
		}
	}
	r, err := NewShardRunner(cfg, w, leased)
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]ShardCheckpoint, opts.Shards)
	leases := 0
	for s := range finals {
		run := ShardRun{Index: s}
		if s == splitShard {
			part, err := r.Run(ctx, run)
			if !errors.Is(err, context.Canceled) || part.Done {
				t.Fatalf("shard %d: first lease ended with err=%v done=%v, want a cancelled partial shard", s, err, part.Done)
			}
			leases++
			run.Resume = &part
		}
		if finals[s], err = r.Run(context.Background(), run); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		leases++
	}
	// The cache traces exactly when it adds an entry, and never drops one.
	if got := len(r.opts.golden.entries); got != opts.Inputs {
		t.Errorf("%d leases traced golden inferences %d times, want once per input (%d)", leases, got, opts.Inputs)
	}
	if res, err = AssembleResult(cfg, w, opts, finals); err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "shards run through one ShardRunner, assembled", want, res)
}

// TestEvery: the one periodic helper runs fn until stop, and stop returns
// only after the goroutine exited — the plain counter below is then safe to
// read (the race detector checks that claim); a non-positive interval never
// starts it.
func TestEvery(t *testing.T) {
	calls := 0
	tick := make(chan struct{}, 1)
	stop := Every(time.Millisecond, func() {
		calls++
		select {
		case tick <- struct{}{}:
		default:
		}
	})
	select {
	case <-tick:
	case <-time.After(10 * time.Second):
		t.Fatal("Every never called fn")
	}
	stop()
	if calls == 0 {
		t.Error("stop returned before a started call was counted")
	}
	Every(0, func() { t.Error("Every(0) called fn") })()
}
