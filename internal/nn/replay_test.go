package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// The replay engine's own tests. Campaign-level suites hold replay to the
// plain-forward oracle through whole studies; these hold its three
// bookkeeping structures — the diff scans, the execution-ordinal trace, the
// arena — directly.

// --- diff scans against the per-element oracle ---------------------------

// naiveDiff is the per-element scan the two-ended scans replaced, kept here
// as their oracle over grid's view of a tensor, h×w positions of c elements:
// the first and last differing elements (-1, -1 when none) and the box of the
// positions that hold one. bx limits the scan to a box (nil: everything).
func naiveDiff(od, gd []float32, h, w, c int, bx *box) (first, last int, b box) {
	first, last, b = -1, -1, box{y0: h, x0: w}
	for i := range od {
		y, x := i/(w*c), i/c%w
		if bx != nil && (y < bx.y0 || y >= bx.y1 || x < bx.x0 || x >= bx.x1) {
			continue
		}
		if od[i] == gd[i] || od[i] != od[i] && gd[i] != gd[i] {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		b.y0, b.y1 = min(b.y0, y), max(b.y1, y+1)
		b.x0, b.x1 = min(b.x0, x), max(b.x1, x+1)
	}
	return first, last, b
}

// TestDiffScansMatchNaive holds the region scans — diffFlat, boxify, diffBox,
// over numerics.DiffEnds — to naiveDiff on random rank-4 and rank-2 tensors
// whose elements are equal through bit differences (the other zero, another
// NaN payload) around 0–4 real differences: at rank 4 (one image or two,
// whose batch axis grid folds into the rows) the whole-tensor scan, boxify
// from the flat range of differences and the box scan of a sweep; at rank 2,
// where grid views a (rows, cols) tensor as (rows, 1, cols), diffFlat's row
// box of the whole tensor and of a sweep's rows. numerics' test of the same
// name holds the row scan to its oracle with the lanes off and on.
func TestDiffScansMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	nanA := math.Float32frombits(0x7fc00001)
	nanB := math.Float32frombits(0xffc00abc)
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, nanA, nanB, float32(math.Inf(1)), float32(math.Inf(-1)), 1.5, -2}
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for tc := 0; tc < cases; tc++ {
		golden := tensor.New(1+rng.Intn(2), 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6))
		if tc%3 == 0 {
			golden = tensor.New(1+rng.Intn(8), 1+rng.Intn(12))
		}
		h, w, c, _ := grid(golden)
		gd := golden.Data()
		for i := range gd {
			gd[i] = specials[rng.Intn(len(specials))]
		}
		out := golden.Clone()
		od := out.Data()
		// Equal-as-elements bit differences everywhere: the scans must see
		// through them.
		for i, v := range od {
			switch {
			case v == 0 && rng.Intn(3) == 0:
				od[i] = -v
			case v != v && rng.Intn(3) == 0:
				od[i] = nanA
			}
		}
		// A random box (whole rows at rank 2) with 0–4 planted differences
		// inside it.
		bx := box{y0: rng.Intn(h), x0: rng.Intn(w)}
		bx.y1, bx.x1 = bx.y0+1+rng.Intn(h-bx.y0), bx.x0+1+rng.Intn(w-bx.x0)
		for k := rng.Intn(5); k > 0; k-- {
			y, x, ch := bx.y0+rng.Intn(bx.y1-bx.y0), bx.x0+rng.Intn(bx.x1-bx.x0), rng.Intn(c)
			i := (y*w+x)*c + ch
			switch g := gd[i]; {
			case g != g:
				od[i] = 3
			case g == 0:
				od[i] = nanB
			default:
				od[i] = -g
			}
		}

		first, last, want := naiveDiff(od, gd, h, w, c, nil)
		wantFirst, wantEqual := first, last < 0
		if wantEqual {
			wantFirst = len(od)
		}
		if gotFirst, gotLast := numerics.DiffEnds(od, gd); gotFirst != wantFirst || gotLast != last {
			t.Fatalf("case %d: DiffEnds = %d, %d, want %d, %d", tc, gotFirst, gotLast, wantFirst, last)
		}
		got, gotEqual := diffFlat(out, golden, 0, len(od))
		if gotEqual != wantEqual || !gotEqual && got != want {
			t.Fatalf("case %d %v: diffFlat = %+v equal %v, want %+v equal %v", tc, out.Shape(), got, gotEqual, want, wantEqual)
		}
		if out.Rank() == 4 && !wantEqual {
			// boxify from the flat range of differences alone, as diffFlat
			// calls it.
			if got := boxify(od, gd, first, last+1, w, c); got != want {
				t.Fatalf("case %d %v: boxify = %+v, want %+v", tc, out.Shape(), got, want)
			}
		}
		_, last, want = naiveDiff(od, gd, h, w, c, &bx)
		wantEqual = last < 0
		if out.Rank() == 4 {
			got, gotEqual = diffBox(out, golden, bx)
		} else {
			got, gotEqual = diffFlat(out, golden, bx.y0*c, bx.y1*c)
		}
		if gotEqual != wantEqual || !gotEqual && got != want {
			t.Fatalf("case %d %v box %+v: scan = %+v equal %v, want %+v equal %v", tc, out.Shape(), bx, got, gotEqual, want, wantEqual)
		}
	}
}

// --- the ordinal contract -------------------------------------------------

func fp16Codec() numerics.Codec { return numerics.MustCodec(numerics.FP16, 0) }

// replayNet is a network and the input it is traced on.
type replayNet struct {
	net *Network
	x   *tensor.Tensor
}

// replayNets builds one small network per traversal shape the ordinal has to
// number: a plain chain, a residual block inside a branch-and-concat, branches
// of three receptive fields (their dirty boxes differ, so a glue region must be their
// union), an attention block (per-head glue steps, shared MatMul sites visited
// once per head), and an LSTM (one Dense site visited once per timestep).
func replayNets() map[string]replayNet {
	c := fp16Codec()
	image := func(rng *rand.Rand) *tensor.Tensor {
		x := tensor.New(1, 12, 12, 3)
		x.RandNormal(rng, 1)
		return x
	}
	nets := map[string]replayNet{}
	add := func(name string, root Layer, x *tensor.Tensor) {
		nets[name] = replayNet{NewNetwork(name, root, c), x}
	}

	rng := rand.New(rand.NewSource(1))
	add("sequential", NewSequential("seq",
		NewConv2D("c1", 3, 3, 3, 8, 1, 1, c).InitRandom(rng, 0.3),
		NewBatchNorm("bn1", 8, c).InitRandom(rng),
		NewReLU("r1", c),
		NewMaxPool("mp", 2, 2),
		NewDepthwiseConv2D("dw", 3, 3, 8, 1, 1, c).InitRandom(rng, 0.3),
		NewRelu6("r2", c),
		NewConv2D("pw", 1, 1, 8, 12, 2, 0, c).InitRandom(rng, 0.3),
		NewReLU("r3", c),
		NewGlobalAvgPool("gap", c),
		NewDense("fc", 12, 5, c).InitRandom(rng, 0.3),
		NewSoftmax("sm"),
	), image(rng))

	rng = rand.New(rand.NewSource(2))
	body := NewSequential("res/body",
		NewConv2D("res/c1", 3, 3, 8, 8, 1, 1, c).InitRandom(rng, 0.1),
		NewReLU("res/r", c),
		NewConv2D("res/c2", 3, 3, 8, 8, 1, 1, c).InitRandom(rng, 0.1),
	)
	rib := NewSequential("rib",
		NewConv2D("stem", 3, 3, 3, 8, 2, 1, c).InitRandom(rng, 0.3),
		NewReLU("stem/r", c),
		NewBranches("br", 3,
			NewSequential("br/a", NewResidual("res", body, nil, c), NewReLU("br/a/r", c)),
			NewSequential("br/b",
				NewZeroPad("br/b/pad", 1),
				NewMaxPool("br/b/mp", 3, 1),
				NewConv2D("br/b/c", 1, 1, 8, 4, 1, 0, c).InitRandom(rng, 0.3),
			),
			NewResidual("br/c", NewBatchNorm("br/c/bn", 8, c).InitRandom(rng),
				NewConv2D("br/c/proj", 1, 1, 8, 8, 1, 0, c).InitRandom(rng, 0.3), c),
		),
		NewGlobalAvgPool("gap", c),
		NewDense("fc", 20, 5, c).InitRandom(rng, 0.3),
		NewSoftmax("sm"),
	)
	add("residual-in-branches", rib, image(rng))

	rng = rand.New(rand.NewSource(5))
	add("receptive-fields", NewSequential("rf",
		NewConv2D("stem", 3, 3, 3, 8, 1, 1, c).InitRandom(rng, 0.3),
		NewReLU("stem/r", c),
		NewBranches("mix", 3,
			NewConv2D("mix/1x1", 1, 1, 8, 4, 1, 0, c).InitRandom(rng, 0.3),
			NewConv2D("mix/3x3", 3, 3, 8, 4, 1, 1, c).InitRandom(rng, 0.3),
			NewSequential("mix/pool",
				NewZeroPad("mix/pool/pad", 1),
				NewMaxPool("mix/pool/mp", 3, 1),
				NewConv2D("mix/pool/1x1", 1, 1, 8, 4, 1, 0, c).InitRandom(rng, 0.3),
			),
		),
		NewReLU("mix/r", c),
		NewConv2D("head", 3, 3, 12, 6, 2, 1, c).InitRandom(rng, 0.3),
		NewGlobalAvgPool("gap", c),
		NewDense("fc", 6, 5, c).InitRandom(rng, 0.3),
		NewSoftmax("sm"),
	), image(rng))

	rng = rand.New(rand.NewSource(3))
	tokens := tensor.New(6, 1)
	for i := range tokens.Data() {
		tokens.Data()[i] = float32(rng.Intn(16))
	}
	ffn := NewFeedForward("ffn", 8, 12, c)
	ffn.InitRandom(rng, 0.3)
	add("attention", NewSequential("att",
		NewEmbedding("embed", 16, 8).InitRandom(rng, 0.5),
		NewResidual("res1", NewMultiHeadAttention("mha", 8, 2, c).InitRandom(rng, 0.3), nil, c),
		NewLayerNorm("ln1", 8),
		NewResidual("res2", ffn, nil, c),
		NewLayerNorm("ln2", 8),
		NewDense("vocab", 8, 16, c).InitRandom(rng, 0.3),
	), tokens)

	rng = rand.New(rand.NewSource(4))
	series := tensor.New(5, 4)
	series.RandNormal(rng, 1)
	add("lstm", NewSequential("rnn",
		NewLSTM("lstm", 4, 6, c).InitRandom(rng, 0.3),
		NewDense("fc", 6, 3, c).InitRandom(rng, 0.3),
		NewSoftmax("sm"),
	), series)
	return nets
}

// replayFaults are the output patches each site execution is hit with: one
// that changes nothing (masked at the site — pure bookkeeping), a large
// value, a NaN, a sign flip of the last element, and a run of small nudges
// that rounding and rectifiers mostly swallow again.
var replayFaults = []func(out []float32){
	func(out []float32) {},
	func(out []float32) { out[len(out)/2] = 1000 },
	func(out []float32) { out[0] = float32(math.NaN()) },
	func(out []float32) { out[len(out)-1] = -out[len(out)-1] - 1 },
	func(out []float32) {
		for i := len(out) / 3; i < len(out)/3+3 && i < len(out); i++ {
			out[i] -= 0.001
		}
	},
}

// replayTotals sums what a sweep of experiments did, the in-package twin of
// the counters benchmark/expected.json pins.
type replayTotals struct {
	Experiments                                 int
	Skipped, Recomputed, Converged, RegionSwept int
	MACsAvoided                                 float64
	ArenaReuses                                 int64
}

// sweepReplay replays, on rctx bound to a trace of net on x, every site
// execution of execs under every fault and requires each output to equal the
// plain hooked forward pass. check, when non-nil, runs after every experiment
// and names what is wrong ("" when nothing). It returns the sweep's totals.
func sweepReplay(t *testing.T, label string, net *Network, x *tensor.Tensor, rctx *Context, execs []SiteExecution, check func() string) replayTotals {
	t.Helper()
	if len(execs) == 0 {
		t.Fatalf("%s: no site executions", label)
	}
	var tot replayTotals
	for _, e := range execs {
		for fi, fault := range replayFaults {
			hook := func(site Layer, visit int, op *Operands) {
				if site == Layer(e.Site) && visit == e.Visit {
					fault(op.Out.Data())
				}
			}
			want := net.ForwardWithHook(x, hook)
			rctx.arena.Reset()
			rctx.SetTarget(e.Site, e.Visit, hook)
			got := net.ForwardWithContext(x, rctx)
			if !got.SameShape(want) {
				t.Fatalf("%s %s#%d fault %d: shape %v, plain forward %v", label, e.Site.Name(), e.Visit, fi, got.Shape(), want.Shape())
			}
			for i, v := range got.Data() {
				if !sameValue(v, want.Data()[i]) {
					t.Fatalf("%s %s#%d fault %d: replay[%d] = %v, plain forward %v", label, e.Site.Name(), e.Visit, fi, i, v, want.Data()[i])
				}
			}
			if check != nil {
				if bad := check(); bad != "" {
					t.Fatalf("%s %s#%d fault %d: %s", label, e.Site.Name(), e.Visit, fi, bad)
				}
			}
			st := rctx.Stats()
			tot.Experiments++
			tot.Skipped += st.Skipped
			tot.Recomputed += st.Recomputed
			tot.Converged += st.Converged
			tot.RegionSwept += st.RegionSwept
			tot.MACsAvoided += st.MACsAvoided
			tot.ArenaReuses += st.ArenaReuses
		}
	}
	return tot
}

func TestReplayMatchesPlainForward(t *testing.T) {
	// Captured at the commit before the trace, the scans and the arena were
	// rebuilt (PR 15's tree): none of the three may move a count. The
	// receptive fields were captured before glue steps swept regions, which
	// may not move a count either. The chain's were captured again when its
	// average pool and flatten (layers no workload uses) gave way to a global
	// average pool.
	want := map[string]replayTotals{
		"sequential":           {Experiments: 20, Skipped: 134, Recomputed: 66, Converged: 5, RegionSwept: 38, MACsAvoided: 29328, ArenaReuses: 70},
		"residual-in-branches": {Experiments: 30, Skipped: 349, Recomputed: 131, Converged: 13, RegionSwept: 40, MACsAvoided: 35350, ArenaReuses: 116},
		"receptive-fields":     {Experiments: 30, Skipped: 250, Recomputed: 110, Converged: 13, RegionSwept: 43, MACsAvoided: 85544, ArenaReuses: 110},
		"attention":            {Experiments: 55, Skipped: 977, Recomputed: 398, Converged: 25, RegionSwept: 35, MACsAvoided: 19464, ArenaReuses: 396},
		"lstm":                 {Experiments: 30, Skipped: 84, Recomputed: 96, Converged: 31, RegionSwept: 0, MACsAvoided: 2415, ArenaReuses: 99},
	}
	for name, n := range replayNets() {
		_, execs, trace := n.net.TraceWithActivations(n.x)
		for _, e := range execs {
			trace.SetWork(e.Site, e.Visit, float64(e.OutSize))
		}
		got := sweepReplay(t, name, n.net, n.x, NewReplayContext(trace, nil), execs, nil)
		if got != want[name] {
			t.Errorf("%s: totals %+v, pinned %+v", name, got, want[name])
		}
	}
}

// A trace names executions by ordinal, so a trace of another network shares
// no step with the pass: every execution must fall back to computing — past
// the end of the shorter trace too — and the hook, armed only at a matched
// target step, never fires.
func TestReplayMismatchedTraceFallsBack(t *testing.T) {
	nets := replayNets()
	a, b := nets["sequential"], nets["residual-in-branches"]
	_, _, traceA := a.net.TraceWithActivations(a.x)
	rctx := NewReplayContext(traceA, NewArena())
	fired := false
	rctx.SetTarget(Sites(b.net.Root)[0], 0, func(Layer, int, *Operands) { fired = true })
	got, want := b.net.ForwardWithContext(b.x, rctx), b.net.Forward(b.x)
	if !got.Equal(want) {
		t.Error("replay over another network's trace differs from the plain forward pass")
	}
	if st := rctx.Stats(); fired || st != (ReplayStats{}) {
		t.Errorf("fired %v, stats %+v: want no step of a foreign trace matched", fired, st)
	}
}

// NewReplayContext(trace, nil) owns an arena: a seeded target (goldenCopy) and
// a converged recompute (release) both go through it.
func TestReplayContextOwnsArena(t *testing.T) {
	n := replayNets()["sequential"]
	want, execs, trace := n.net.TraceWithActivations(n.x)
	rctx := NewReplayContext(trace, nil)
	rctx.SetTarget(execs[0].Site, execs[0].Visit, func(Layer, int, *Operands) {})
	if got := n.net.ForwardWithContext(n.x, rctx); got != want || rctx.Stats().Converged != 1 {
		t.Errorf("masked replay: output is golden pointer %v, stats %+v", got == want, rctx.Stats())
	}
}

// --- owned buffers ----------------------------------------------------------

// ownedOutsideBox is the test-only accessor of the owned-buffer invariant: it
// returns how many owned buffers of c record a golden tensor, and the first
// of them that differs from it, bit for bit, outside the box it records
// ("" when none does).
func ownedOutsideBox(c *Context) (recorded int, bad string) {
	for i, o := range c.own {
		if o.golden == nil {
			continue
		}
		recorded++
		if !o.t.SameShape(o.golden) {
			return recorded, fmt.Sprintf("ordinal %d: shape %v, golden %v", i, o.t.Shape(), o.golden.Shape())
		}
		inside := make([]bool, o.t.Size())
		_, _, ch, _ := grid(o.t)
		o.box.runs(o.t, func(p0, p1 int) {
			for k := p0 * ch; k < p1*ch; k++ {
				inside[k] = true
			}
		})
		for j, v := range o.t.Data() {
			if g := o.golden.Data()[j]; !inside[j] && math.Float32bits(v) != math.Float32bits(g) {
				return recorded, fmt.Sprintf("ordinal %d (%s) box %+v: element %d = %v, golden %v", i, o.layer.Name(), o.box, j, v, g)
			}
		}
	}
	return recorded, ""
}

// secondInput is another input of n's network: a 10×10 image for the 12×12
// one of residual-in-branches (a shape change: its global pool takes any
// size), other tokens for the attention net, the input negated and halved
// otherwise.
func secondInput(name string, nets map[string]replayNet) *tensor.Tensor {
	if name == "residual-in-branches" {
		x := tensor.New(1, 10, 10, 3)
		x.RandNormal(rand.New(rand.NewSource(6)), 1)
		return x
	}
	x2 := nets[name].x.Clone()
	for i, v := range x2.Data() {
		if name == "attention" {
			x2.Data()[i] = float32((int(v) + 5) % 16)
		} else {
			x2.Data()[i] = -v / 2
		}
	}
	return x2
}

// Every owned buffer equals the golden tensor it records outside the box it
// records, after every replayed experiment: every site execution of every
// replayNets network under every fault, on one context rebound from the
// network's input to a second one and back. Each output is also the plain
// hooked forward pass's, so a buffer kept across a Rebind or a shape change
// shows either way.
func TestOwnedBuffersMatchGolden(t *testing.T) {
	nets := replayNets()
	for name, n := range nets {
		x2 := secondInput(name, nets)
		_, execsA, traceA := n.net.TraceWithActivations(n.x)
		_, execsB, traceB := n.net.TraceWithActivations(x2)
		rctx := NewReplayContext(traceA, nil)
		recorded := 0
		check := func() string {
			r, bad := ownedOutsideBox(rctx)
			recorded += r
			return bad
		}
		for pass, in := range []struct {
			x     *tensor.Tensor
			trace *GoldenTrace
			execs []SiteExecution
		}{{n.x, traceA, execsA}, {x2, traceB, execsB}, {n.x, traceA, execsA}} {
			rctx.Rebind(in.trace)
			sweepReplay(t, fmt.Sprintf("%s pass %d", name, pass), n.net, in.x, rctx, in.execs, check)
		}
		if name != "sequential" && name != "lstm" && recorded == 0 {
			t.Errorf("%s: no owned buffer ever recorded a golden tensor; the invariant went unchecked", name)
		}
	}
}

// --- allocation ceilings --------------------------------------------------

func TestHotLoopsAllocateOnlyTheirOutput(t *testing.T) {
	// What one output tensor costs outside replay: header, shape, strides,
	// data and the variadic shape argument.
	tensorAllocs := testing.AllocsPerRun(20, func() { (*Context)(nil).newTensor(24, 8) })
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(24, 32)
	x.RandNormal(rng, 1)
	if got := testing.AllocsPerRun(20, func() { sliceCols(nil, x, 8, 8) }); got > tensorAllocs {
		t.Errorf("sliceCols: %v allocs, want its output tensor (%v)", got, tensorAllocs)
	}
	ln := NewLayerNorm("ln", 32)
	if got := testing.AllocsPerRun(20, func() { ln.normalize(x.Data(), 24, 32) }); got != 0 {
		t.Errorf("LayerNorm.normalize: %v allocs, want 0", got)
	}
	emb := NewEmbedding("embed", 64, 32).InitRandom(rng, 0.5)
	tokens := tensor.New(24, 1)
	if got := testing.AllocsPerRun(20, func() { emb.Forward(tokens, nil) }); got > tensorAllocs {
		t.Errorf("Embedding.Forward: %v allocs, want its output tensor (%v)", got, tensorAllocs)
	}
}

// A steady-state replayed experiment whose fault is masked at the site is
// pure bookkeeping — SetTarget, one seeded target, a walk of skips — and draws
// its one tensor from the arena; the operand set handed to the hook is the
// context's. Nothing is left to allocate.
func TestMaskedReplayAllocs(t *testing.T) {
	n := replayNets()["sequential"]
	_, execs, trace := n.net.TraceWithActivations(n.x)
	arena := NewArena()
	rctx := NewReplayContext(trace, arena)
	hook := func(Layer, int, *Operands) {}
	for _, e := range execs {
		got := testing.AllocsPerRun(20, func() {
			arena.Reset()
			rctx.SetTarget(e.Site, e.Visit, hook)
			n.net.ForwardWithContext(n.x, rctx)
		})
		if got != 0 {
			t.Errorf("masked replay at %s: %v allocs per experiment, want 0", e.Site.Name(), got)
		}
	}
}

// A fault at the stem of residual-in-branches dirties both residual adds and
// the branch concat, and reaches ZeroPad and the softmax head. A sweep takes
// its buffer where the full compute takes it — the adds from the arena, the
// concat, the pad and the head from the context's owned buffers — and the
// branch outputs' slots from the context's stack, so nothing is left to
// allocate.
func TestDirtyGlueReplayAllocs(t *testing.T) {
	n := replayNets()["residual-in-branches"]
	_, execs, trace := n.net.TraceWithActivations(n.x)
	arena := NewArena()
	rctx := NewReplayContext(trace, arena)
	stem := execs[0]
	hook := func(_ Layer, _ int, op *Operands) { op.Out.Data()[op.Out.Size()/2] = 1000 }
	got := testing.AllocsPerRun(20, func() {
		arena.Reset()
		rctx.SetTarget(stem.Site, stem.Visit, hook)
		n.net.ForwardWithContext(n.x, rctx)
	})
	if got > 0 {
		t.Errorf("replay with dirty glue at %s: %v allocs per experiment, want 0", stem.Site.Name(), got)
	}
}
