package nn

import (
	"fidelity/internal/tensor"
)

// This file implements the incremental golden-replay execution engine.
//
// A fault-injection campaign runs millions of forward passes that are all
// tiny perturbations of one golden inference: every layer executed before
// the injected site is bit-identical to the golden trace, and after the
// injection only the fault's downstream cone can differ. The replay engine
// exploits this: a record-mode Context captures the golden output tensor of
// every layer execution, and a replay-mode Context then
//
//   - short-circuits every execution before the target visit by returning
//     its cached golden tensor in O(1);
//   - seeds the target execution from its golden output and fires the
//     injection hook without recomputing the layer (the fault models patch
//     outputs via ComputeNeuron, which only needs the operand tensors);
//   - after the injection, recomputes an execution only if one of its input
//     tensors is dirty, so off-path branches in DAG topologies (inception
//     branches, attention heads, residual shortcuts) skip too;
//   - canonicalizes recomputed outputs that converged back to their golden
//     values (ReLU, pooling and rounding mask faults constantly) onto the
//     golden tensor pointer, so skipping resumes downstream of the
//     convergence point.
//
// Cleanliness is tracked by pointer identity: a tensor is clean iff it is
// one of the recorded golden tensors. That makes the dirty test O(inputs)
// and exact — no epsilon comparisons, no false sharing. Bit-exactness with
// the full forward pass follows because skipped layers return the very
// values the full pass would recompute (the forward pass is deterministic)
// and recomputed layers run the identical code on identical inputs.

// ctxMode selects how a Context executes the layer graph.
type ctxMode int

const (
	// ctxPlain computes every layer and records nothing: the hooked full
	// forward of Trace, the naive baseline and the envelope profiler, and the
	// plain-forward oracle the tests hold replay to.
	ctxPlain ctxMode = iota
	// ctxRecord computes every layer and records its output as golden.
	ctxRecord
	// ctxReplay memoizes against a recorded golden trace.
	ctxReplay
)

// traceStep is one recorded layer execution. A forward pass calls exec and
// glue in an order fixed by the layer graph and the tensor shapes, never by
// tensor values, so the position of a call in that order — its execution
// ordinal — names the execution: step i of the trace is what the i-th
// exec/glue entry of any later pass over the same input is (DESIGN.md §5.1).
// glue distinguishes a composite layer's own work (residual add, branch
// concat, attention softmax) from leaf executions; visit numbers the leaf
// executions of one layer, which is what hooks and SetTarget speak.
type traceStep struct {
	layer Layer
	visit int
	glue  bool
	out   *tensor.Tensor
	work  float64
	// region is layer as a regionSite, nil when it cannot sweep a region:
	// asserted once, at record time, because an interface assertion in the
	// replay loop allocates now and then (the runtime rebuilds a call site's
	// cache on a miss).
	region regionSite
}

// GoldenTrace holds the recorded golden output of every layer execution of
// one forward pass, in execution order, plus the pointer-identity set of
// clean tensors. The clean set stays a set of pointers — a list of dirty
// tensors instead would call a Reshape view of a dirty tensor clean.
type GoldenTrace struct {
	steps  []traceStep
	golden map[*tensor.Tensor]bool
}

// newGoldenTrace builds an empty trace.
func newGoldenTrace() *GoldenTrace {
	return &GoldenTrace{golden: map[*tensor.Tensor]bool{}}
}

// begin appends the step of an execution that is starting and returns its
// ordinal. The ordinal is taken at entry, as replay takes it, not when the
// output exists.
func (g *GoldenTrace) begin(l Layer, visit int, glue bool) int {
	st := traceStep{layer: l, visit: visit, glue: glue}
	if !glue {
		st.region, _ = l.(regionSite)
	}
	g.steps = append(g.steps, st)
	return len(g.steps) - 1
}

// put records the golden output of execution ord.
func (g *GoldenTrace) put(ord int, out *tensor.Tensor) {
	g.steps[ord].out = out
	g.golden[out] = true
}

// MarkGolden adds t to the clean set. The network input must be marked so
// layers reading it directly (stems, branch roots) can prove their inputs
// clean.
func (g *GoldenTrace) MarkGolden(t *tensor.Tensor) { g.golden[t] = true }

// SetWork attaches a MAC-work estimate to a site execution, so replay can
// report how much compute each skip avoided. A linear search: it runs once
// per site execution when the trace is recorded, never during replay.
func (g *GoldenTrace) SetWork(site Layer, visit int, work float64) {
	for i := range g.steps {
		if st := &g.steps[i]; st.layer == site && st.visit == visit && !st.glue {
			st.work = work
			return
		}
	}
}

// Arena recycles output tensors across replayed experiments. Free tensors
// are bucketed by element count and every lent one is handed back wholesale
// by Reset at experiment boundaries. It lends what Context.newTensor and
// goldenCopy take: leaf outputs, region sweeps, the residual add and
// attention's column slices. The other replayed outputs — the concats, the
// softmaxes, the zero pads and the LSTM's hidden state — are the context's
// own (owned), one buffer per trace ordinal, and take no loan, so
// ReplayStats.ArenaReuses counts the first kind alone; together the two make
// a steady-state experiment allocate nothing. The arena is single-goroutine
// (one per replay executor: an injector and its context, kept across inputs
// by Context.Rebind); it is never used in record mode, so golden tensors are
// never arena-owned.
//
// The arena recycles the tensor header along with its buffer: get may return
// a *tensor.Tensor an earlier release or Reset handed in, reshaped in place.
// A released pointer is therefore dead to its former holder — in particular
// it must not stay behind in Context.dirty. Only converged outputs
// (canonicalize releases them instead of recording a box) and the
// convolution row-window scratch (never an execution's output) are released
// mid-pass, and SetTarget empties dirty before the next pass reuses anything
// Reset reclaimed.
type Arena struct {
	// free holds one bucket per element count ever requested — a few dozen for
	// the largest zoo network — searched linearly; lent is every tensor handed
	// out since the last Reset, in get order; reuses counts the recycles
	// since the arena was built.
	free   []arenaBucket
	lent   []*tensor.Tensor
	reuses int64
}

// arenaBucket is the free list of one element count.
type arenaBucket struct {
	n  int
	ts []*tensor.Tensor
}

// NewArena builds an empty arena.
func NewArena() *Arena { return &Arena{} }

// bucket returns the free list for element count n, adding an empty one the
// first time n is seen.
func (a *Arena) bucket(n int) *arenaBucket {
	for i := range a.free {
		if a.free[i].n == n {
			return &a.free[i]
		}
	}
	a.free = append(a.free, arenaBucket{n: n})
	return &a.free[len(a.free)-1]
}

// putFree files t under its element count.
func (a *Arena) putFree(t *tensor.Tensor) {
	b := a.bucket(t.Size())
	b.ts = append(b.ts, t)
}

// get returns a tensor of the given shape over a recycled (not zeroed)
// buffer, or a fresh one when no free buffer has that element count.
func (a *Arena) get(shape ...int) *tensor.Tensor {
	if t := a.recycled(shape...); t != nil {
		return t
	}
	return a.lend(tensor.New(shape...))
}

// recycled returns a tensor of the given shape over a free buffer, lent and
// counted as a reuse, or nil when no free buffer has that element count.
func (a *Arena) recycled(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	b := a.bucket(n)
	if len(b.ts) == 0 {
		return nil
	}
	t := b.ts[len(b.ts)-1]
	b.ts = b.ts[:len(b.ts)-1]
	t.ReshapeInPlace(shape...)
	a.reuses++
	return a.lend(t)
}

// lend records t as handed out until the next Reset and returns it.
func (a *Arena) lend(t *tensor.Tensor) *tensor.Tensor {
	a.lent = append(a.lent, t)
	return t
}

// release returns t to the free list if the arena lent it; foreign tensors
// (views, golden outputs, ad-hoc allocations) are ignored. The search runs
// from the back: what gets released is the newest or second-newest loan.
func (a *Arena) release(t *tensor.Tensor) {
	for i := len(a.lent) - 1; i >= 0; i-- {
		if a.lent[i] == t {
			last := len(a.lent) - 1
			a.lent[i] = a.lent[last]
			a.lent = a.lent[:last]
			a.putFree(t)
			return
		}
	}
}

// Reset reclaims every tensor lent out since the last Reset. Call at an
// experiment boundary, when no tensor from the previous experiment is
// referenced anymore.
func (a *Arena) Reset() {
	for _, t := range a.lent {
		a.putFree(t)
	}
	a.lent = a.lent[:0]
}

// owned is the output buffer a replay context keeps for one trace ordinal
// whose output the arena does not lend: a concat, a softmax or a zero pad,
// each written whole by its full compute, or the LSTM's hidden state. Every
// replayed pass that runs the step writes into it, so a warm pass allocates
// nothing there; the buffer's life, like an arena loan's, ends with the
// experiment. layer is the layer that wrote it: a buffer is reused by that
// layer only (a zero pad relies on a border it wrote itself). golden, when
// non-nil, is the golden tensor t equals outside box — the positions the last
// glue sweep wrote — so the next sweep restores that box and writes its own
// (sweepBuf); nil means nothing is known of t (fresh, or written whole by a
// full compute).
type owned struct {
	layer     Layer
	t, golden *tensor.Tensor
	box       box
}

// slot returns the owned buffer of l's replayed execution now running — the
// ordinal step just took — or nil outside replay, where every output is a
// fresh tensor (a recorded golden must outlive every experiment).
func (c *Context) slot(l Layer) *owned {
	if c == nil || c.mode != ctxReplay {
		return nil
	}
	return c.ownedAt(c.seq-1, l)
}

// entrySlot is slot for a composite l that builds its output around the steps
// it runs rather than in one (the LSTM's hidden state): the slot of the
// ordinal its first step will take. That step is a leaf Dense, which holds
// no slot, so the two never share one. (With no step at all, it is the next
// layer's: a slot holder there empties the slot, which costs a new buffer,
// never a shared one.)
func (c *Context) entrySlot(l Layer) *owned {
	if c == nil || c.mode != ctxReplay {
		return nil
	}
	return c.ownedAt(c.seq, l)
}

// ownedAt returns l's owned buffer at ordinal i, emptied if another layer
// held it.
func (c *Context) ownedAt(i int, l Layer) *owned {
	if i >= len(c.own) {
		c.own = append(c.own, make([]owned, i+1-len(c.own))...)
	}
	o := &c.own[i]
	if o.layer != l {
		*o = owned{layer: l}
	}
	return o
}

// buf returns the buffer a full compute writes into: o's, or nil — a fresh
// tensor — when there is none yet or outside replay (a nil o).
func (o *owned) buf() *tensor.Tensor {
	if o == nil {
		return nil
	}
	return o.t
}

// keep records t, which a full compute wrote whole — into buf(), or into a
// fresh tensor when the shape changed — as o's buffer, and returns it.
func (o *owned) keep(t *tensor.Tensor) *tensor.Tensor {
	if o != nil {
		o.t, o.golden = t, nil
	}
	return t
}

// pathOuts returns n slots for the outputs of a composite layer's paths, from
// the context's stack (a fresh slice for a nil context). Paths nest — a
// branch may hold branches — and each composite gives its slots back with
// dropPaths before it returns, so the stack is as deep as the nesting. A
// nested reservation that grows the stack leaves the outer slots where they
// were, still the outer layer's alone.
func (c *Context) pathOuts(n int) []*tensor.Tensor {
	if c == nil {
		return make([]*tensor.Tensor, n)
	}
	base := len(c.paths)
	for range n {
		// One at a time: append of a make allocates the make under -race.
		c.paths = append(c.paths, nil)
	}
	return c.paths[base : base+n : base+n]
}

// dropPaths gives back the slots pathOuts returned last.
func (c *Context) dropPaths(outs []*tensor.Tensor) {
	if c != nil {
		clear(outs)
		c.paths = c.paths[:len(c.paths)-len(outs)]
	}
}

// ReplayStats counts what one replayed forward pass did and avoided.
type ReplayStats struct {
	// Skipped counts executions served from the golden trace.
	Skipped int
	// Recomputed counts executions that ran because an input was dirty.
	Recomputed int
	// Converged counts recomputed executions whose output matched golden
	// again (the fault was masked by then), re-enabling downstream skips.
	Converged int
	// RegionSwept counts the subset of Recomputed executions served by a
	// dirty-region sweep (only the output box reached by the fault was
	// recomputed; the rest was copied from golden).
	RegionSwept int
	// MACsAvoided estimates the MAC work of the skipped site executions.
	MACsAvoided float64
	// ArenaReuses counts output buffers the arena recycled instead of
	// allocating.
	ArenaReuses int64
}

// NewRecordContext builds a context that computes every layer, fires hook at
// every site, and records each execution's output into the returned trace.
func NewRecordContext(hook Hook) (*Context, *GoldenTrace) {
	c := NewContext(hook)
	c.mode = ctxRecord
	c.execVisits = map[Layer]int{}
	c.trace = newGoldenTrace()
	return c, c.trace
}

// NewReplayContext builds a reusable replay context over a recorded trace.
// Call SetTarget before each forward pass. Replay draws every output it
// recomputes from arena; a nil arena gives the context one of its own.
func NewReplayContext(trace *GoldenTrace, arena *Arena) *Context {
	if arena == nil {
		arena = NewArena()
	}
	return &Context{mode: ctxReplay, trace: trace, arena: arena}
}

// Rebind points the replay context at another recorded trace of the same
// network — another input's golden state — keeping its arena's free lists,
// its owned buffers and its scratch; SetTarget empties the dirty list before
// the next pass. The clean set is the new trace's alone; neither arena tensors
// nor owned buffers ever enter a trace's clean set, so no recycled buffer can
// pass as golden, and an owned buffer that last copied the old trace's golden
// is restored in full before its next sweep (sweepBuf).
func (c *Context) Rebind(trace *GoldenTrace) { c.trace = trace }

// SetTarget arms the replay context for one experiment: hook fires exactly
// once, at the visit-th execution of site, with operands seeded from the
// golden trace. All per-pass state is reset.
func (c *Context) SetTarget(site Layer, visit int, hook Hook) {
	c.hook = hook
	c.target = site
	c.targetVisit = visit
	c.injected = false
	c.pendingFire = false
	c.seq = 0
	c.paths = c.paths[:0] // what a panicked pass left reserved
	c.dirty = c.dirty[:0]
	c.stats = ReplayStats{}
	c.hstats = HardenStats{}
	c.reusesBase = c.arena.reuses
}

// Stats returns the counters of the last replayed pass.
func (c *Context) Stats() ReplayStats {
	st := c.stats
	st.ArenaReuses = c.arena.reuses - c.reusesBase
	return st
}

// Detach disables the hook for the remainder of the pass. The injector calls
// this once its plan is applied, so the traversal stops paying for hook
// dispatch on every later visit.
func (c *Context) Detach() {
	if c != nil {
		c.hook = nil
	}
}

// newTensor allocates a layer output buffer: from the arena during replay,
// freshly otherwise (recorded golden tensors must outlive every experiment).
// The buffer is zeroed either way, since accumulating layers rely on it; an
// arena miss is tensor.New's buffer, zeroed already.
func (c *Context) newTensor(shape ...int) *tensor.Tensor {
	if c == nil || c.mode != ctxReplay {
		return tensor.New(shape...)
	}
	if t := c.arena.recycled(shape...); t != nil {
		clear(t.Data())
		return t
	}
	return c.arena.lend(tensor.New(shape...))
}

// seedFn builds the hook operand set around a golden-seeded output tensor,
// exactly as the layer's own compute path would.
type seedFn func(out *tensor.Tensor) *Operands

// step returns the recorded step of the replayed execution now entering — l's
// own work when glue, a leaf execution otherwise — and advances the ordinal.
// It returns nil when the trace has no such step at this ordinal (a trace of
// another network, or a pass that ran past its end): the caller then computes,
// so a mismatched trace costs speed, never correctness or an index panic.
func (c *Context) step(l Layer, glue bool) *traceStep {
	i := c.seq
	c.seq++
	if i >= len(c.trace.steps) {
		return nil
	}
	if st := &c.trace.steps[i]; st.layer == l && st.glue == glue {
		return st
	}
	return nil
}

// exec wraps one leaf-layer execution. compute runs the layer for real (and
// fires the hook from inside, via Context.fire); seed, non-nil for sites,
// builds the operand set without computing. in lists the input tensors the
// execution reads, for the dirty test.
//
// Every route that produces a fresh output — plain, record, the seeded or
// computed target, the dirty-region sweep, the whole-layer recompute — ends
// in the same post-step: clamp the site's output to its hardening envelope,
// then (replay only) diff it against golden to either converge back onto the
// golden pointer or record the dirty box. The clamp comes first because
// saturation can restore golden equality, and because the recorded box must
// bound the final, post-clamp tensor.
func (c *Context) exec(l Layer, compute func() *tensor.Tensor, seed seedFn, in ...*tensor.Tensor) *tensor.Tensor {
	if c == nil {
		return compute()
	}
	var st *traceStep
	ord := -1
	switch c.mode {
	case ctxRecord:
		v := c.execVisits[l]
		c.execVisits[l] = v + 1
		ord = c.trace.begin(l, v, false)
	case ctxReplay:
		st = c.step(l, false)
	}
	var out *tensor.Tensor
	var swept box
	switch {
	case st == nil:
		// Plain and record passes — and a replayed execution the trace does
		// not hold at this ordinal, which cannot happen for a trace of the
		// same network and input — compute.
		out = compute()
	case !c.injected && l == c.target && st.visit == c.targetVisit:
		c.injected = true
		c.stats.MACsAvoided += st.work
		c.pendingVisit, c.pendingFire = st.visit, true
		if seed != nil {
			// Seed the output from golden instead of recomputing: the hook's
			// fault models only read the operand tensors and patch Out via
			// ComputeNeuron.
			out = c.goldenCopy(st.out)
			c.fire(l, seed(out))
		} else {
			out = compute()
		}
		c.pendingFire = false
	case !c.injected || c.allGolden(in):
		// Before the target everything is golden by construction; after it,
		// clean inputs mean the execution is off the fault's downstream cone.
		return c.skip(st)
	default:
		if rs, b, ok := c.dirtyRegion(st, in); ok {
			if out, swept, ok = rs.forwardRegion(c, in[0], st.out, b); !ok {
				// The dirty input reaches no output element (it fell off the
				// stride lattice or the padding crop): the golden output
				// stands.
				return c.skip(st)
			}
			c.stats.RegionSwept++
		} else {
			out = compute()
		}
		c.stats.Recomputed++
	}
	c.clampSite(l, out)
	if ord >= 0 {
		c.trace.put(ord, out)
	}
	if st == nil {
		return out
	}
	return c.canonicalize(out, st.out, swept)
}

// skip serves one execution from the golden trace.
func (c *Context) skip(st *traceStep) *tensor.Tensor {
	c.stats.Skipped++
	c.stats.MACsAvoided += st.work
	return st.out
}

// dirtyRegion reports whether st's layer can sweep just the output region
// reached by its single dirty input, and that input's recorded box;
// otherwise the whole layer recomputes. A Conv2D sweeps with the tiled
// kernel, so under the reference kernels it recomputes through them instead.
func (c *Context) dirtyRegion(st *traceStep, in []*tensor.Tensor) (regionSite, box, bool) {
	rs := st.region
	if _, conv := st.layer.(*Conv2D); rs == nil || conv && UseReferenceKernels() || len(in) != 1 || in[0] == nil {
		return nil, box{}, false
	}
	b, ok := c.region(in[0])
	return rs, b, ok
}

// glue wraps a composite layer's own work (residual add, branch concat,
// attention slicing/softmax). Glue steps are never injection targets and
// carry no visit number; the glue flag keeps a composite's step from being
// taken for a leaf execution of the same layer value. sweep, non-nil for a
// step whose output position p (an (n, y, x) pixel at rank 4, a row at rank 2)
// reads only its inputs' last-axis vectors at p, lets a replayed step
// recompute just the positions its dirty inputs' boxes cover: it returns a
// copy of golden, its buffer taken where compute takes its own, with every
// position of region recomputed (DESIGN.md §5.2).
func (c *Context) glue(l Layer, compute func() *tensor.Tensor, sweep func(golden *tensor.Tensor, region box) *tensor.Tensor, in ...*tensor.Tensor) *tensor.Tensor {
	if c == nil || c.mode == ctxPlain {
		return compute()
	}
	if c.mode == ctxRecord {
		ord := c.trace.begin(l, 0, true)
		out := compute()
		c.trace.put(ord, out)
		return out
	}
	st := c.step(l, true)
	if st == nil {
		return compute()
	}
	if !c.injected || c.allGolden(in) {
		c.stats.Skipped++
		return st.out
	}
	c.stats.Recomputed++
	if sweep != nil {
		if r, ok := c.glueRegion(st.out, in); ok {
			return c.canonicalize(sweep(st.out, r), st.out, r)
		}
	}
	return c.canonicalize(compute(), st.out, box{})
}

// canonicalize maps a recomputed output that equals its golden value back
// onto the golden tensor pointer, so downstream dirty tests see it as clean
// again. The recomputed buffer goes back to the arena. The convergence scan
// doubles as the region scan: when the output differs, the box of its
// differing positions is recorded so a downstream region-capable layer can
// sweep only the dirty region. swept, when not the zero box, is the output
// box a region sweep recomputed (rows at rank 2): everything outside it is a
// golden copy, so only the box is scanned.
func (c *Context) canonicalize(out, golden *tensor.Tensor, swept box) *tensor.Tensor {
	if out == golden {
		return out
	}
	var b box
	var equal bool
	switch {
	case swept == box{}:
		b, equal = diffFlat(out, golden, 0, out.Size())
	case out.Rank() == 4:
		b, equal = diffBox(out, golden, swept)
	default:
		cols := out.Dim(1)
		b, equal = diffFlat(out, golden, swept.y0*cols, swept.y1*cols)
	}
	if equal {
		c.stats.Converged++
		c.arena.release(out)
		return golden
	}
	if b != (box{}) {
		c.dirty = append(c.dirty, dirtyOut{out, b})
	}
	return out
}

// allGolden reports whether every input is a recorded golden tensor.
func (c *Context) allGolden(in []*tensor.Tensor) bool {
	for _, t := range in {
		if t != nil && !c.trace.golden[t] {
			return false
		}
	}
	return true
}
