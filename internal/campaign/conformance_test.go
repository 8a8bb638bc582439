package campaign

// The conformance suite. The engine's contract: a StudyResult is a
// byte-identical function of (seed, shards, target), whatever runs it and
// whatever breaks. Each (network, precision, planner) has one reference, the
// oracle — every experiment a plain full forward pass, one per window, on the
// frozen reference kernels — run once per test binary. Every cell holds its
// StudyResult JSON, and the checkpoint JSON of every cut it makes, byte for
// byte to that reference. The zoo cells run production on every network ×
// precision; the covering cells are a pairwise covering array over planner ×
// disruption × execution, the worker count rotating. internal/distrib holds
// the fleet's transports to Study the same way.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// execution is how a cell runs its experiments.
type execution struct {
	name       string
	window     int  // experiments per window; 0 = experimentWindow
	refKernels bool // the frozen reference kernels instead of the tiled ones
	oracle     bool // plain full forward passes, no replay
}

var (
	production = execution{name: "window-64"}
	oracle     = execution{name: "oracle", window: 1, refKernels: true, oracle: true}
	executions = []execution{production, {name: "window-5", window: 5}, {name: "window-1", window: 1},
		{name: "reference-kernels", refKernels: true}, oracle}
)

// run runs opts on e through a runner of its own, returned so a cell can look
// at its executors. The kernel mode is reset on the way out, so a failing
// cell cannot leave the reference kernels on for later tests.
func (e execution) run(ctx context.Context, w *model.Workload, opts StudyOptions) (*StudyResult, *ShardRunner, error) {
	opts.window, opts.oracle = e.window, e.oracle
	nn.SetReferenceKernels(e.refKernels)
	defer nn.SetReferenceKernels(false)
	r, err := NewShardRunner(accel.NVDLASmall(), w, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := r.study(ctx, accel.NVDLASmall())
	return res, r, err
}

// cut runs opts on e at Workers 1 and cancels from inside as the k-th
// experiment commits, so every execution stops after the same experiments:
// the checkpoint holds exactly those k. A reference cut is made by the same
// Study code as the cell's, so only the count shows a cut that was dropped
// and rerun from the shard's grant on resume.
func (e execution) cut(t *testing.T, w *model.Workload, opts StudyOptions, k int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Workers = 1
	n, observe := 0, opts.observe
	opts.observe = func(shard int, cur Cursor, id faultmodel.ID, r inject.Result) {
		if observe != nil {
			observe(shard, cur, id, r)
		}
		if n++; n == k {
			cancel()
		}
	}
	_, _, err := e.run(ctx, w, opts)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("%s: cut at experiment %d returned %v, want *Interrupted", e.name, k, err)
	}
	if got := intr.Checkpoint.Experiments; got != k {
		t.Fatalf("%s: cut at experiment %d checkpoints %d experiments", e.name, k, got)
	}
	return intr.Checkpoint
}

// disruption is what happens to a cell's campaign while it runs.
type disruption string

// An interrupt cancels from inside as the k-th experiment commits and resumes
// on the next execution: the execution path is no part of a checkpoint's
// identity. A supervised run is an interrupt under the reference's chaos. A
// warm executor runs every shard, input and round: in an adaptive campaign it
// switches inputs at every lane of every stratum.
const (
	undisturbed  disruption = "none"
	interrupt    disruption = "interrupt"
	supervised   disruption = "supervised"
	warmExecutor disruption = "warm-executor"
)

// refKey names one reference.
type refKey struct {
	net      string
	prec     numerics.Precision
	adaptive bool
}

// options is the campaign of every cell of k, on two shards. A fixed one's
// shard 0 runs sample loops of two experiments, so a window size shows. An
// adaptive one takes two rounds on the network that runs it, so a cut lands
// past a barrier, and alternates between two inputs in every stratum.
func (k refKey) options() StudyOptions {
	if k.adaptive {
		return StudyOptions{TargetCI: 0.07, Inputs: 2, Tolerance: 0.1, Seed: 7, Shards: 2}
	}
	return StudyOptions{Samples: 3, Inputs: 1, Tolerance: 0.1, Seed: 7, Shards: 2}
}

// outcomes records the result of every experiment a campaign commits, a pure
// function of (campaign, shard, cursor): finer than the tallies, which two
// wrong results can leave equal.
type outcomes struct {
	mu sync.Mutex
	m  map[chaosKey]inject.Result
}

func (o *outcomes) observe(shard int, cur Cursor, _ faultmodel.ID, r inject.Result) {
	o.mu.Lock()
	o.m[chaosKey{shard, cur}] = r
	o.mu.Unlock()
}

// reference is one key's oracle campaign. The parts only some cells need are
// run on first use.
type reference struct {
	w    *model.Workload
	opts StudyOptions
	json []byte
	ran  map[chaosKey]inject.Result
	at   int // where cells cut: halfway, or in the second adaptive round
	// chaos strikes the first experiments of fault models 0 and 3 on shard 0
	// and of model 2 on shard 1. supervised is the campaign minus them; cuts
	// holds the oracle's checkpoints at at, by disruption.
	chaos      supervision
	supervised []byte
	cuts       map[disruption][]byte
}

// references holds the references run so far. Cells run one at a time,
// never in parallel: the kernel mode is process-wide.
var references = map[refKey]*reference{}

func referenceOf(t *testing.T, k refKey) *reference {
	t.Helper()
	if r := references[k]; r != nil {
		return r
	}
	w, err := model.Build(k.net, k.prec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ran := &outcomes{m: map[chaosKey]inject.Result{}}
	opts := k.options()
	opts.Workers, opts.observe = 2, ran.observe
	res, _, err := oracle.run(context.Background(), w, opts)
	if err != nil {
		t.Fatalf("%v oracle: %v", k, err)
	}
	r := &reference{w: w, opts: k.options(), json: marshal(t, res), ran: ran.m, at: res.Experiments / 2, cuts: map[disruption][]byte{}}
	if k.adaptive {
		r.at = res.Experiments * 7 / 8
	}
	firstOf := func(shard, model int) chaosKey {
		var first *chaosKey
		for e := range r.ran {
			if e.shard == shard && e.cur.Model == model && (first == nil || e.cur.before(first.cur)) {
				first = &e
			}
		}
		if first == nil {
			t.Fatalf("%v: shard %d ran no experiment of fault model %d", k, shard, model)
		}
		return *first
	}
	r.chaos = supervision{panics: []chaosKey{firstOf(0, 0), firstOf(0, 3)}, hang: firstOf(1, 2)}
	references[k] = r
	return r
}

// cut returns the oracle's checkpoint at r.at under d's chaos, or none.
func (r *reference) cut(t *testing.T, d disruption) []byte {
	if r.cuts[d] == nil {
		opts := r.opts
		if d == supervised {
			opts.ExperimentTimeout, opts.chaos = supervisionDeadline, r.chaos.policy(t)
		}
		r.cuts[d] = marshal(t, oracle.cut(t, r.w, opts, r.at))
	}
	return r.cuts[d]
}

// cell is one run of the suite.
type cell struct {
	refKey
	dis     disruption
	exec    int // index into executions
	workers int
}

// conformanceCells lists the zoo cells, then the covering cells: every
// disruption meets every execution, and the planner alternates along both
// axes, so it meets every value of each. Cells that cut run the oracle
// beyond the reference, so the covering cells run on cheap networks; rnn
// INT8 is the cheapest whose adaptive campaign takes two rounds.
func conformanceCells() []cell {
	var cells []cell
	for _, net := range model.Names() {
		for _, prec := range []numerics.Precision{numerics.FP16, numerics.INT16, numerics.INT8} {
			cells = append(cells, cell{refKey{net, prec, false}, undisturbed, 0, 2})
		}
	}
	fixedNets := []refKey{{"mobilenet", numerics.FP16, false}, {"rnn", numerics.INT8, false},
		{"transformer", numerics.INT16, false}, {"inception", numerics.INT8, false}}
	for d, dis := range []disruption{undisturbed, interrupt, supervised, warmExecutor} {
		for e := range executions {
			k := refKey{"rnn", numerics.INT8, true}
			if (d+e)%2 == 0 {
				k = fixedNets[(d+e)/2%len(fixedNets)]
			}
			cells = append(cells, cell{k, dis, e, 1 + (d+2*e)%3})
		}
	}
	return cells
}

// TestConformance runs every cell against its reference.
func TestConformance(t *testing.T) {
	for _, c := range conformanceCells() {
		name := fmt.Sprintf("%s/%s/%s/%v/adaptive=%v/workers=%d", c.dis, executions[c.exec].name, c.net, c.prec, c.adaptive, c.workers)
		t.Run(name, c.run)
	}
}

func (c cell) run(t *testing.T) {
	ref := referenceOf(t, c.refKey)
	exec, want := executions[c.exec], ref.json
	opts, tel, ran := ref.opts, telemetry.New(), &outcomes{m: map[chaosKey]inject.Result{}}
	opts.Workers, opts.Telemetry, opts.observe = c.workers, tel, ran.observe
	switch c.dis {
	case supervised:
		if ref.supervised == nil {
			ref.supervised = ref.chaos.without(t, oracle, ref.w, ref.opts)
		}
		want = ref.supervised
		opts.ExperimentTimeout, opts.chaos = supervisionDeadline, ref.chaos.policy(t)
	case warmExecutor:
		opts.Workers = 1
	}
	run := exec
	var cp *Checkpoint
	if c.dis == interrupt || c.dis == supervised {
		cp = exec.cut(t, ref.w, opts, ref.at)
		requireSameJSON(t, "checkpoint", ref.cut(t, c.dis), cp)
		if c.adaptive && c.dis == interrupt {
			cp = halfBarrier(t, cp)
		}
		opts.Telemetry, opts.Resume = telemetry.New(), cp
		if c.dis == supervised {
			opts.chaos = ref.chaos.policy(t)
		}
		run = executions[(c.exec+1)%len(executions)]
	}
	res, r, err := run.run(context.Background(), ref.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "StudyResult", want, res)
	if quarantined := len(res.Quarantined); len(ran.m)+quarantined != len(ref.ran) {
		t.Errorf("committed %d experiments and quarantined %d, want the reference's %d", len(ran.m), quarantined, len(ref.ran))
	}
	for e, r := range ran.m {
		if want, ok := ref.ran[e]; !ok || !sameOutcome(r, want) {
			t.Fatalf("shard %d cursor %+v: %+v, the oracle's %+v", e.shard, e.cur, r, want)
		}
	}
	// Executors belong to the runner: every one it built is idle again, no
	// more than the workers, and a warm one ran every shard, input and round.
	if n := len(r.idle); n < 1 || n > min(opts.Workers, 2) || c.dis == warmExecutor && n != 1 {
		t.Errorf("%d executors at Workers=%d", n, opts.Workers)
	}
	if cp != nil {
		// The resume ran only what the checkpoint had not done (telemetry
		// counts quarantined experiments among those run).
		if ran, want := opts.Telemetry.Experiments(), int64(res.Experiments+len(res.Quarantined)-cp.Experiments-cp.Quarantined); ran != want {
			t.Errorf("the resume ran %d experiments, want %d", ran, want)
		}
		var panics, timeouts int64
		for _, run := range []*telemetry.Collector{tel, opts.Telemetry} {
			if rec := run.Snapshot().Recovery; rec != nil {
				panics, timeouts = panics+rec.PanicsRecovered, timeouts+rec.Timeouts
			}
		}
		if c.dis == supervised && (panics != 2 || timeouts != 1) {
			t.Errorf("recovered %d panics and %d timeouts, want 2 and 1", panics, timeouts)
		}
	}

	// Telemetry shows the execution that ran. Its windows held one
	// experiment each at window 1, more than one in some otherwise: sample
	// loops of one experiment fail this at every size. Replay counters come
	// exactly from the replay engine, tiles from the tiled kernels, and an
	// uncut run counts every experiment, fault model and phase.
	snap := tel.Snapshot()
	switch b := snap.Batch; {
	case b == nil:
		t.Error("no batch telemetry")
	case (exec.window == 1) != (b.Experiments == b.Batches) || b.SiteGroups <= 0 || b.SiteGroups > b.Experiments:
		t.Errorf("%s: batch telemetry %+v", exec.name, b)
	}
	if rep := snap.Replay; exec.oracle != (rep == nil) || rep != nil && (rep.LayersSkipped <= 0 ||
		rep.CacheHitRatio <= 0 || rep.CacheHitRatio > 1 || rep.ArenaReuses <= 0 || rep.MACsAvoidedEst <= 0) {
		t.Errorf("%s: replay telemetry %+v", exec.name, rep)
	}
	if ks := snap.Kernels; exec.refKernels != (ks == nil) {
		t.Errorf("%s: kernel telemetry %+v", exec.name, ks)
	}
	if cp == nil {
		var phases []string
		for _, p := range snap.Phases {
			phases = append(phases, p.Name)
		}
		if tel.Experiments() != int64(res.Experiments+len(res.Quarantined)) || len(snap.Models) != len(faultmodel.AllIDs()) ||
			!slices.Equal(phases, []string{"trace", "inject", "fit"}) {
			t.Errorf("telemetry counted %d experiments of %d fault models in phases %v", tel.Experiments(), len(snap.Models), phases)
		}
	}
}

// halfBarrier returns cp as saved while the last round barrier's rewrite was
// half applied: the shards that have not started the last round still hold
// the history before it. Resuming must heal them to the full history.
func halfBarrier(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	half := *cp
	half.Shard = slices.Clone(cp.Shard)
	for i, sc := range half.Shard {
		if a := sc.Adaptive; !sc.Done && sc.Cursor == (Cursor{}) && a.Round > 0 && a.Round == len(a.History)-1 {
			half.Shard[i].Adaptive = &AdaptiveShardState{Round: a.Round, History: a.History[:a.Round]}
			return &half
		}
	}
	t.Fatal("no shard of the cut waits to start the second round")
	return nil
}

// marshal returns v's JSON.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSameJSON fails t unless v's JSON is want.
func requireSameJSON(t *testing.T, what string, want []byte, v any) {
	t.Helper()
	if got := marshal(t, v); !bytes.Equal(got, want) {
		t.Errorf("%s JSON differs:\n got %s\nwant %s", what, got, want)
	}
}
