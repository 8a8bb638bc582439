// Package inject is step 2 of the FIdelity flow: it applies the software
// fault models to end-to-end inference runs of the nn substrate and
// classifies each experiment's outcome (masked vs. application output error
// vs. system anomaly), producing the Prob_SWmask statistics Eq. 2 consumes.
package inject

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/tensor"
)

// Outcome classifies one fault-injection experiment (Sec. III-D: masked vs.
// system failure, where failure covers output errors and system anomalies).
type Outcome int

const (
	// Masked: the application output is sufficiently similar to the golden
	// output under the workload's correctness metric.
	Masked Outcome = iota
	// OutputError: the application output violates the correctness metric.
	OutputError
	// SystemAnomaly: time-out or hang (global-control faults).
	SystemAnomaly
	// FrameworkFault: the experiment did not produce an application outcome
	// because the injection framework itself failed — a panic in the
	// recompute path or a watchdog-killed hang. It is a harness outcome, not
	// a hardware one: the campaign supervisor quarantines the experiment and
	// excludes it from the Prob_SWmask statistics Eq. 2 consumes.
	FrameworkFault
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case OutputError:
		return "output-error"
	case SystemAnomaly:
		return "system-anomaly"
	case FrameworkFault:
		return "framework-fault"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ReplayCost reports what the incremental replay engine did during one
// experiment's forward pass. Zero on Results produced without it (the
// plain-forward oracle, or global-control shortcuts that run no forward).
type ReplayCost struct {
	// Skipped counts layer executions served from the golden trace.
	Skipped int
	// Recomputed counts layer executions in the fault's downstream cone.
	Recomputed int
	// Converged counts recomputed executions whose output matched golden
	// again, re-enabling skips downstream.
	Converged int
	// RegionSwept counts recomputed executions served by the dirty-region
	// sweep: only the output box reached by the fault was recomputed.
	RegionSwept int
	// MACsAvoided estimates the MAC work of skipped site executions.
	MACsAvoided float64
	// ArenaReuses counts output buffers recycled instead of allocated.
	ArenaReuses int64
}

// HardenCost reports what range-restriction clamping did during one
// experiment's forward pass. Nil for unhardened networks and for
// global-control shortcuts that run no forward pass.
type HardenCost struct {
	// ClampApplications counts site executions whose output was
	// bounds-checked.
	ClampApplications int64
	// Saturated counts individual output values forced back into the
	// profiled envelope.
	Saturated int64
}

// Result records one experiment.
type Result struct {
	Outcome Outcome
	Model   faultmodel.ID
	Site    string
	// FaultyNeurons is the number of output neurons changed at the injected
	// layer.
	FaultyNeurons int
	// MaxPerturbation is the largest |faulty − golden| among the changed
	// neurons (Key Result 5's quantity). Infinities and NaN map to +Inf.
	MaxPerturbation float64
	// Score is the application quality score vs. the golden output.
	Score float64
	// Replay carries the replay engine's per-experiment savings; Replayed is
	// false when the experiment ran the full forward pass or none at all.
	Replay   ReplayCost
	Replayed bool
	// Harden carries the clamp counters of a hardened network's forward
	// pass, nil otherwise. Like Replay, it is run-cost telemetry, not part
	// of the experiment outcome.
	Harden *HardenCost
}

// Injector runs fault-injection experiments against one workload.
type Injector struct {
	W       *model.Workload
	Sampler *faultmodel.Sampler

	// g is the golden state of the prepared input. arena and rctx are the
	// injector's replay state, built at its first traced PrepareGolden and
	// rebound to every later input's trace, so they stay warm for the
	// injector's lifetime; they are nil until then, and unused while g
	// carries no activation trace.
	g     *Golden
	arena *nn.Arena
	rctx  *nn.Context

	// The experiment in flight, its hook (bound once, by New), the
	// plan every experiment reuses and PredictTarget's stream: reusing them
	// cannot race a hung experiment's goroutine, as a watchdog kill abandons
	// the whole injector.
	exp     experiment
	hook    nn.Hook
	plan    faultmodel.Plan
	predict *rand.Rand
}

// New builds an injector for workload w with sampler s.
func New(w *model.Workload, s *faultmodel.Sampler) *Injector {
	in := &Injector{W: w, Sampler: s, predict: rand.New(faultmodel.NewStreamSource(0))}
	in.hook = in.exp.inject
	return in
}

// experiment is what one run shares with its injection hook: the fault to
// plan and where, the context to detach from, and what the hook did.
type experiment struct {
	in     *Injector
	id     faultmodel.ID
	target nn.SiteExecution
	fctx   *nn.Context

	planned bool
	changes []faultmodel.Change
	err     error
}

// inject is the experiment's hook: at the target execution it plans the fault
// and applies it, exactly once.
func (e *experiment) inject(site nn.Layer, visit int, op *nn.Operands) {
	s, ok := site.(nn.Site)
	if !ok || s != e.target.Site || visit != e.target.Visit || e.err != nil || e.planned {
		return
	}
	// One experiment injects exactly once: detach the hook so the rest of the
	// traversal stops paying for dispatch and visit re-checks.
	defer e.fctx.Detach()
	p := &e.in.plan
	if e.err = e.in.Sampler.PlanInto(p, e.id, s, visit, op); e.err != nil {
		return
	}
	e.planned = true
	e.changes = faultmodel.Apply(p, s, op)
}

// Golden is the recorded golden state for one input: the decoded clean
// inference output, every site execution (with golden activations when
// traced for replay), the work-proportional sampling weights, and the replay
// trace. It is immutable once TraceGolden returns, so a campaign records it
// once per input and shares it across every shard's injector — replay only
// reads the trace, and each injector keeps its own mutable replay context.
type Golden struct {
	input   *tensor.Tensor
	golden  model.AppOutput
	execs   []nn.SiteExecution
	weights []float64
	total   float64
	trace   *nn.GoldenTrace // nil when traced without replay support
}

// TraceGolden runs the golden inference for x and records the shared golden
// state. withReplay selects the activation-recording trace the replay engine
// consumes. Without it, injectors prepared from the Golden run every
// experiment as a plain full forward pass: the bit-identical reference oracle
// the differential tests hold the replay engine to, not a production mode.
func TraceGolden(w *model.Workload, x *tensor.Tensor, withReplay bool) (*Golden, error) {
	g := &Golden{input: x}
	var out *tensor.Tensor
	if withReplay {
		out, g.execs, g.trace = w.Net.TraceWithActivations(x)
	} else {
		out, g.execs = w.Net.Trace(x)
	}
	if len(g.execs) == 0 {
		return nil, fmt.Errorf("inject: workload %s has no injection sites", w.Net.Name())
	}
	g.golden = w.Decode(out)
	g.weights = make([]float64, len(g.execs))
	for i, e := range g.execs {
		g.weights[i] = execWork(e)
		g.total += g.weights[i]
		if g.trace != nil {
			g.trace.SetWork(e.Site, e.Visit, g.weights[i])
		}
	}
	return g, nil
}

// Executions returns the recorded site executions in order (shared: read only).
func (g *Golden) Executions() []nn.SiteExecution { return g.execs }

// PrepareGolden points the injector at a shared Golden of its own workload,
// skipping the golden forward pass. The injector's execution mode follows g:
// incremental replay when g carries an activation trace, the plain full
// forward otherwise. The first traced g builds the injector's one arena and
// replay context; every later one rebinds that context, so switching inputs
// keeps the arena's buffers warm. Preparing the Golden already prepared does
// nothing. It cannot fail any more; the error result stays because
// benchmark/ compiles against it.
func (in *Injector) PrepareGolden(g *Golden) error {
	if g == in.g {
		return nil
	}
	in.g = g
	switch {
	case g.trace == nil:
	case in.rctx == nil:
		in.arena = nn.NewArena()
		in.rctx = nn.NewReplayContext(g.trace, in.arena)
	default:
		in.rctx.Rebind(g.trace)
	}
	return nil
}

// execWork estimates the MAC work of a site execution: output size times the
// reduction length — the proxy for the time share during which the layer's
// values occupy the accelerator datapath.
func execWork(e nn.SiteExecution) float64 {
	red := 1.0
	if c, ok := e.Site.(*nn.Conv2D); ok && c.Depthwise {
		// One filter per channel: the reduction is just the kernel window.
		red = float64(c.KH * c.KW)
	} else if len(e.WShape) > 0 {
		wsize := 1
		for _, d := range e.WShape {
			wsize *= d
		}
		outCh := e.WShape[len(e.WShape)-1]
		if e.Site != nil && e.Site.Kind() != nn.KindConv {
			outCh = e.WShape[1] // (K, N) layout
		}
		if outCh > 0 {
			red = float64(wsize) / float64(outCh)
		}
	}
	return float64(e.OutSize) * red
}

// pickExec samples a site execution proportionally to its work.
func (in *Injector) pickExec() nn.SiteExecution {
	r := in.Sampler.Rand().Float64() * in.g.total
	for i, w := range in.g.weights {
		r -= w
		if r <= 0 {
			return in.g.execs[i]
		}
	}
	return in.g.execs[len(in.g.execs)-1]
}

// PredictTarget returns the execution index a Run whose experiment stream is
// seeded at seed will target, without touching the injector's own sampler.
// The target draw is the first Float64 of the stream (pickExec), so the
// injector's scratch generator reseeded at the same seed reproduces it
// exactly. Campaigns use this to group a batch of cursor-derived experiments
// by target site before running them: grouping is sound precisely because
// each experiment re-derives its whole stream from its cursor seed, so
// execution order cannot change any drawn value.
func (in *Injector) PredictTarget(seed int64) int {
	in.predict.Seed(seed)
	r := in.predict.Float64() * in.g.total
	for i, w := range in.g.weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(in.g.execs) - 1
}

// Executions returns the number of recorded site executions for the
// prepared input.
func (in *Injector) Executions() int { return len(in.g.execs) }

// Run executes one experiment: sample a fault of model id at a work-weighted
// site execution, inject it, and classify the outcome under tolerance tol.
// A single experiment is the cancellation atom: ctx is checked once on
// entry, before any sampler draw, so a cancelled Run never advances the
// sampler's random stream (which is what keeps checkpoints exact).
func (in *Injector) Run(ctx context.Context, id faultmodel.ID, tol float64) (Result, error) {
	return in.run(ctx, id, tol, -1)
}

// RunAt executes one experiment pinned to the execIdx-th site execution —
// used by per-layer campaigns that estimate Prob_SWmask(cat, r) separately
// for every layer r.
func (in *Injector) RunAt(ctx context.Context, execIdx int, id faultmodel.ID, tol float64) (Result, error) {
	if execIdx < 0 || execIdx >= len(in.g.execs) {
		return Result{}, fmt.Errorf("inject: execution %d outside [0,%d)", execIdx, len(in.g.execs))
	}
	return in.run(ctx, id, tol, execIdx)
}

func (in *Injector) run(ctx context.Context, id faultmodel.ID, tol float64, execIdx int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if in.g == nil {
		return Result{}, fmt.Errorf("inject: PrepareGolden must be called first")
	}
	res := Result{Model: id}
	if id == faultmodel.GlobalControl {
		// FIdelity models faults in active global control FFs as always
		// failing (Prob_SWmask = 0); the concrete anomaly is a time-out or
		// massive corruption.
		res.Outcome = SystemAnomaly
		res.Site = "global"
		res.Score = 0
		return res, nil
	}
	target := in.pickExec()
	if execIdx >= 0 {
		target = in.g.execs[execIdx]
	}
	res.Site = target.Site.Name()

	e := &in.exp
	*e = experiment{in: in, id: id, target: target}
	var out *tensor.Tensor
	if in.g.trace != nil {
		// Incremental replay: reclaim last experiment's buffers (also after
		// a recovered panic mid-pass), arm the target, and let the context
		// serve golden tensors for everything outside the fault's cone.
		in.arena.Reset()
		arenaBase := in.arena.Reuses()
		e.fctx = in.rctx
		e.fctx.SetTarget(target.Site, target.Visit, in.hook)
		out = in.W.Net.ForwardWithContext(in.g.input, e.fctx)
		st := e.fctx.Stats()
		res.Replay = ReplayCost{
			Skipped:     st.Skipped,
			Recomputed:  st.Recomputed,
			Converged:   st.Converged,
			RegionSwept: st.RegionSwept,
			MACsAvoided: st.MACsAvoided,
			ArenaReuses: in.arena.Reuses() - arenaBase,
		}
		res.Replayed = true
	} else {
		e.fctx = nn.NewContext(in.hook)
		out = in.W.Net.ForwardWithContext(in.g.input, e.fctx)
	}
	if in.W.Net.Hardened() {
		hs := e.fctx.HardenStats()
		res.Harden = &HardenCost{ClampApplications: hs.ClampApplications, Saturated: hs.Saturated}
	}
	if e.err != nil {
		return Result{}, e.err
	}
	if !e.planned {
		return Result{}, fmt.Errorf("inject: target execution %s#%d not reached", target.Site.Name(), target.Visit)
	}

	res.FaultyNeurons = len(e.changes)
	for _, c := range e.changes {
		d := math.Abs(float64(c.Faulty) - float64(c.Golden))
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		if d > res.MaxPerturbation {
			res.MaxPerturbation = d
		}
	}
	if len(e.changes) == 0 {
		// The flip did not alter any stored output value: architecturally
		// masked at the layer itself.
		res.Outcome = Masked
		res.Score = 1
		return res, nil
	}
	faulty := in.W.Decode(out)
	res.Score = in.W.Score(in.g.golden, faulty)
	if in.W.CorrectScore(res.Score, tol) {
		res.Outcome = Masked
	} else {
		res.Outcome = OutputError
	}
	return res, nil
}
