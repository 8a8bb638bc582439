package campaign

import (
	"bytes"
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
	if got := len(r.golden.entries); got != opts.Inputs {
		t.Errorf("%d leases traced golden inferences %d times, want once per input (%d)", leases, got, opts.Inputs)
	}
	if res, err = AssembleResult(cfg, w, opts, finals); err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "shards run through one ShardRunner, assembled", want, res)
}

// TestShardCheckpointClone: a run tallies into a clone of its Resume and
// streams clones of its state while it keeps running, so a clone shares
// nothing with its source — no tally or per-layer map, quarantine array or
// round state — and holds every fault model's tally, zero where the source
// has none.
func TestShardCheckpointClone(t *testing.T) {
	ids := faultmodel.AllIDs()
	src := NewShardCheckpoint(1)
	src.Masked[ids[2]] = Proportion{Successes: 3, Trials: 5}
	src.PerLayer = []map[faultmodel.ID]Proportion{nil, {ids[1]: {Successes: 1, Trials: 2}}}
	src.Quarantine = append(make([]QuarantinedExperiment, 0, 2), QuarantinedExperiment{Shard: 1, Reason: ReasonPanic})
	src.Adaptive = &AdaptiveShardState{Round: 1, History: [][]int{{3, 4}}}
	before := marshal(t, src)

	c := src.clone()
	for e, m := range append([]map[faultmodel.ID]Proportion{c.Masked}, c.PerLayer...) {
		want := src.Masked
		if e > 0 {
			want = src.PerLayer[e-1]
		}
		for _, id := range ids {
			if p, ok := m[id]; !ok || p != want[id] {
				t.Errorf("tally map %d: %v = %+v (present %v), want %+v", e, id, p, ok, want[id])
			}
		}
	}
	for _, m := range append([]map[faultmodel.ID]Proportion{c.Masked}, c.PerLayer...) {
		for _, id := range ids {
			tally(m, id, true)
		}
	}
	c.Quarantine[0].Detail = "written through the clone"
	c.Quarantine = append(c.Quarantine, QuarantinedExperiment{Shard: 1, Reason: ReasonTimeout})
	c.Adaptive.Round++
	c.Adaptive.History[0][0]++
	c.Adaptive.Final = true
	if got := marshal(t, src); !bytes.Equal(got, before) {
		t.Errorf("writing the clone changed its source:\n got %s\nwant %s", got, before)
	}
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
