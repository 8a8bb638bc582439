package inject

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
	"fidelity/internal/numerics"
)

func newInjector(t testing.TB, netName string, prec numerics.Precision, seed int64) *Injector {
	t.Helper()
	w, err := model.Build(netName, prec, 42)
	if err != nil {
		t.Fatal(err)
	}
	models, err := faultmodel.Derive(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	s, err := faultmodel.NewSampler(models, seed)
	if err != nil {
		t.Fatal(err)
	}
	inj := New(w, s)
	x, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := TraceGolden(w, x, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.PrepareGolden(g); err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestRunRequiresPrepare(t *testing.T) {
	w, _ := model.Build("resnet", numerics.FP16, 1)
	models, _ := faultmodel.Derive(accel.NVDLASmall())
	s, _ := faultmodel.NewSampler(models, 1)
	inj := New(w, s)
	if _, err := inj.Run(context.Background(), faultmodel.OutputPSum, 0.1); err == nil {
		t.Error("Run before Prepare should fail")
	}
}

func TestGlobalControlAlwaysFails(t *testing.T) {
	inj := newInjector(t, "resnet", numerics.FP16, 1)
	for i := 0; i < 5; i++ {
		r, err := inj.Run(context.Background(), faultmodel.GlobalControl, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != SystemAnomaly {
			t.Fatalf("global control outcome = %v", r.Outcome)
		}
	}
}

func TestDatapathInjectionOutcomes(t *testing.T) {
	inj := newInjector(t, "resnet", numerics.FP16, 2)
	counts := map[Outcome]int{}
	for i := 0; i < 60; i++ {
		r, err := inj.Run(context.Background(), faultmodel.OutputPSum, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.Outcome]++
		if r.Outcome == SystemAnomaly {
			t.Fatal("datapath faults cannot time out in software injection")
		}
		if r.FaultyNeurons > 1 {
			t.Fatalf("output/psum model changed %d neurons, want <= 1", r.FaultyNeurons)
		}
	}
	// RF=1 single-bit flips in a CNN are mostly masked but not always.
	if counts[Masked] == 0 {
		t.Error("expected some masked outcomes")
	}
}

// CBUF→MAC faults touch at most RF neurons; before-CBUF faults can touch
// many more.
func TestModelNeuronCounts(t *testing.T) {
	inj := newInjector(t, "resnet", numerics.FP16, 3)
	maxCBUF, maxBefore := 0, 0
	for i := 0; i < 40; i++ {
		r, err := inj.Run(context.Background(), faultmodel.CBUFMACInput, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if r.FaultyNeurons > 16 {
			t.Fatalf("CBUF→MAC input changed %d neurons, want <= 16", r.FaultyNeurons)
		}
		if r.FaultyNeurons > maxCBUF {
			maxCBUF = r.FaultyNeurons
		}
		rb, err := inj.Run(context.Background(), faultmodel.BeforeCBUFWeight, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if rb.FaultyNeurons > maxBefore {
			maxBefore = rb.FaultyNeurons
		}
	}
	if maxBefore <= maxCBUF {
		t.Errorf("before-CBUF faults should reach more neurons: %d vs %d", maxBefore, maxCBUF)
	}
}

func TestLocalControlRF1(t *testing.T) {
	inj := newInjector(t, "mobilenet", numerics.FP16, 4)
	for i := 0; i < 20; i++ {
		r, err := inj.Run(context.Background(), faultmodel.LocalControl, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if r.FaultyNeurons > 1 {
			t.Fatalf("local control changed %d neurons", r.FaultyNeurons)
		}
	}
}

// The transformer exercises FC and MatMul sites via LSTM-free attention
// paths; injections must complete and classify.
func TestTransformerInjection(t *testing.T) {
	inj := newInjector(t, "transformer", numerics.FP16, 5)
	for _, id := range []faultmodel.ID{faultmodel.CBUFMACInput, faultmodel.CBUFMACWeight, faultmodel.OutputPSum} {
		r, err := inj.Run(context.Background(), id, 0.1)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if r.Score < 0 || r.Score > 1.0001 {
			t.Errorf("%v: score %v out of range", id, r.Score)
		}
	}
}

// The RNN's gate Dense runs once per timestep; injection must land on a
// specific visit without error.
func TestRNNInjectionVisits(t *testing.T) {
	inj := newInjector(t, "rnn", numerics.FP16, 6)
	for i := 0; i < 10; i++ {
		if _, err := inj.Run(context.Background(), faultmodel.CBUFMACWeight, 0.1); err != nil {
			t.Fatal(err)
		}
	}
}

// Wider tolerance can only increase masking (Key Result 3's mechanism).
func TestToleranceMonotonic(t *testing.T) {
	inj := newInjector(t, "yolo", numerics.FP16, 7)
	masked10, masked20 := 0, 0
	for i := 0; i < 40; i++ {
		r, err := inj.Run(context.Background(), faultmodel.BeforeCBUFInput, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome == Masked {
			masked10++
		}
		// Reclassify the same score under 20%.
		if r.Outcome == Masked || r.Score >= 0.8 {
			masked20++
		}
	}
	if masked20 < masked10 {
		t.Errorf("20%% tolerance masked fewer than 10%%: %d < %d", masked20, masked10)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Masked, OutputError, SystemAnomaly, Outcome(9)} {
		if o.String() == "" {
			t.Error("empty outcome name")
		}
	}
}

// RunAt pins the injection to a specific execution.
func TestRunAtPinsSite(t *testing.T) {
	inj := newInjector(t, "rnn", numerics.FP16, 8)
	n := inj.Executions()
	if n < 2 {
		t.Fatalf("rnn should have many executions, got %d", n)
	}
	if _, err := inj.RunAt(context.Background(), -1, faultmodel.OutputPSum, 0.1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := inj.RunAt(context.Background(), n, faultmodel.OutputPSum, 0.1); err == nil {
		t.Error("out-of-range index should fail")
	}
	r, err := inj.RunAt(context.Background(), 0, faultmodel.OutputPSum, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Execution 0 is the first gate Dense invocation.
	if r.Site != "lstm/gates" {
		t.Errorf("pinned site = %s", r.Site)
	}
	// The last execution is the classifier head.
	r, err = inj.RunAt(context.Background(), n-1, faultmodel.OutputPSum, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Site != "fc" {
		t.Errorf("pinned last site = %s", r.Site)
	}
}

// TestPredictTargetMatchesPick verifies PredictTarget's core contract: for
// any experiment seed, the scratch-generator prediction lands on exactly the
// execution that pickExec draws after Reseed(seed), and predicting another
// seed in between leaves the live sampler's stream alone (a campaign window
// predicts every experiment before it runs any). Site-grouped batching in the
// campaign engine is sound only if this holds for every seed, so sweep a few
// hundred across topologies with very different work distributions.
func TestPredictTargetMatchesPick(t *testing.T) {
	for _, net := range []string{"inception", "rnn", "mobilenet"} {
		inj := newInjector(t, net, numerics.FP16, 1)
		for seed := int64(0); seed < 300; seed++ {
			want := inj.PredictTarget(seed)
			inj.Sampler.Reseed(seed)
			inj.PredictTarget(seed + 1000)
			got := inj.pickExec()
			w := inj.g.execs[want]
			if got.Site != w.Site || got.Visit != w.Visit {
				t.Fatalf("%s seed %d: PredictTarget -> %s#%d, pickExec -> %s#%d",
					net, seed, w.Site.Name(), w.Visit, got.Site.Name(), got.Visit)
			}
		}
	}
}

// TestPredictTargetMatchesRun closes the loop end to end: a full Run seeded
// at seed must report the site PredictTarget named, proving that no draw
// before target selection was missed.
func TestPredictTargetMatchesRun(t *testing.T) {
	inj := newInjector(t, "resnet", numerics.FP16, 1)
	for seed := int64(0); seed < 30; seed++ {
		want := inj.g.execs[inj.PredictTarget(seed)].Site.Name()
		inj.Sampler.Reseed(seed)
		r, err := inj.Run(context.Background(), faultmodel.OutputPSum, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Site != want {
			t.Fatalf("seed %d: Run hit %s, PredictTarget said %s", seed, r.Site, want)
		}
	}
}

// A steady-state replayed experiment allocates nothing (DESIGN.md §5.1 "Who
// owns a buffer"): the arena lends the leaf outputs, the replay context owns
// the concats, softmaxes and zero pads, the plan, the changes, the operand set
// and the replay counters live on the injector and its context. Every fault
// model on mobilenet and resnet, each experiment measured alone once a first
// pass over the same seeds has grown the arena's free lists, the owned
// buffers and the recompute windows to their steady-state size; experiments
// whose fault converges are among them.
func TestMaskedReplayExperimentAllocs(t *testing.T) {
	ctx := context.Background()
	for _, net := range []string{"mobilenet", "resnet"} {
		inj := newInjector(t, net, numerics.FP16, 3)
		for _, id := range faultmodel.AllIDs() {
			var r Result
			run := func(seed int64) {
				inj.Sampler.Reseed(seed)
				var err error
				if r, err = inj.Run(ctx, id, 0.1); err != nil {
					t.Fatal(err)
				}
			}
			for seed := int64(0); seed < 100; seed++ {
				run(seed)
			}
			converged := 0
			for seed := int64(0); seed < 100; seed++ {
				if got := testing.AllocsPerRun(2, func() { run(seed) }); got != 0 {
					t.Errorf("%s %v seed %d: %v allocs, want 0 (converged %d)", net, id, seed, got, r.Replay.Converged)
				}
				if r.Replay.Converged > 0 {
					converged++
				}
			}
			if id != faultmodel.GlobalControl && converged == 0 {
				t.Errorf("%s %v: no experiment converged", net, id)
			}
		}
	}
}

// TestWalkedReplayAllocsZoo holds a walked experiment — one whose fault
// changes the site's output, so replay recomputes its way down the suffix
// through every kind of step the network has (region sweeps, glue sweeps,
// full recomputes, the head) — to zero allocations in the steady state, on
// every zoo network at FP16 and on inception at INT8, each experiment measured
// alone after a first pass over the same seeds.
func TestWalkedReplayAllocsZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every zoo network")
	}
	type cell struct {
		net  string
		prec numerics.Precision
	}
	var cells []cell
	for _, net := range model.Names() {
		cells = append(cells, cell{net, numerics.FP16})
	}
	cells = append(cells, cell{"inception", numerics.INT8})
	ctx := context.Background()
	ids := []faultmodel.ID{faultmodel.BeforeCBUFWeight, faultmodel.OutputPSum}
	for _, c := range cells {
		inj := newInjector(t, c.net, c.prec, 3)
		for _, id := range ids {
			var r Result
			run := func(seed int64) {
				inj.Sampler.Reseed(seed)
				var err error
				if r, err = inj.Run(ctx, id, 0.1); err != nil {
					t.Fatal(err)
				}
			}
			const seeds = 30
			for seed := int64(0); seed < seeds; seed++ {
				run(seed)
			}
			walked := 0
			for seed := int64(0); seed < seeds; seed++ {
				// AllocsPerRun floors the mean: an allocation the runtime
				// makes now and then (a GC worker's) cannot fail the test,
				// one the experiment makes every time does.
				got := testing.AllocsPerRun(4, func() { run(seed) })
				if r.FaultyNeurons == 0 {
					continue
				}
				walked++
				if got != 0 {
					t.Errorf("%s %v %v seed %d (%s): %v allocs per walked experiment, want 0", c.net, c.prec, id, seed, r.Site, got)
				}
			}
			if walked == 0 {
				t.Errorf("%s %v %v: no walked experiment among %d seeds", c.net, c.prec, id, seeds)
			}
		}
	}
}

// TestPrepareGoldenKeepsArenaWarm prepares one injector on input 0, then 1,
// then 0 again, and runs the same experiments on it as on a fresh injector
// per input. Every Result must be byte-identical but for ArenaReuses, the one
// field warmth exists to move; and the first replayed experiment after each
// switch must recycle more buffers than it does on a cold arena, which only an
// arena kept across the switch can do.
func TestPrepareGoldenKeepsArenaWarm(t *testing.T) {
	w, err := model.Build("inception", numerics.INT8, 42)
	if err != nil {
		t.Fatal(err)
	}
	models, err := faultmodel.Derive(accel.NVDLASmall())
	if err != nil {
		t.Fatal(err)
	}
	newInj := func() *Injector {
		s, err := faultmodel.NewSampler(models, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(w, s)
	}
	var goldens [2]*Golden
	for i := range goldens {
		x, err := dataset.Sample(w.Dataset, i)
		if err != nil {
			t.Fatal(err)
		}
		if goldens[i], err = TraceGolden(w, x, true); err != nil {
			t.Fatal(err)
		}
	}
	ids := faultmodel.AllIDs()
	ids = ids[:len(ids)-1] // every model but GlobalControl, which runs no forward pass
	// run makes one experiment and returns its Result, ArenaReuses apart.
	run := func(in *Injector, e int, seed int64) ([]byte, int64) {
		in.Sampler.Reseed(seed)
		r, err := in.RunAt(context.Background(), e, ids[e%len(ids)], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		reuses := r.Replay.ArenaReuses
		r.Replay.ArenaReuses = 0
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b, reuses
	}
	warm := newInj()
	for phase, input := range []int{0, 1, 0} {
		if err := warm.PrepareGolden(goldens[input]); err != nil {
			t.Fatal(err)
		}
		fresh := newInj()
		if err := fresh.PrepareGolden(goldens[input]); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < warm.Executions(); e++ {
			seed := int64(1000*phase + e)
			got, warmReuses := run(warm, e, seed)
			want, coldReuses := run(fresh, e, seed)
			// The fresh injector's first experiment runs on a cold arena, so
			// it must lend at least its target's output fresh; a warm one has
			// a buffer of every size the last input's sweep used.
			if phase > 0 && e == 0 && warmReuses <= coldReuses {
				t.Errorf("phase %d (input %d): the first experiment after the switch recycled %d buffers, a cold arena %d",
					phase, input, warmReuses, coldReuses)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("phase %d (input %d) execution %d: warm injector %s, fresh injector %s", phase, input, e, got, want)
			}
		}
	}
}
