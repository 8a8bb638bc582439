package rtlsim

import (
	"fmt"
	"math"
	"sync"

	"fidelity/internal/accel"
	"fidelity/internal/tensor"
)

// Reference is the golden run of one layer on one design, kept so that each
// fault injection simulates only the cycles the fault can change: the state
// before the fault cycle is the golden run's by construction, and a fault
// whose effects die within its tile leaves the golden state again at the next
// tile boundary (DESIGN.md, "rtlsim: resume and re-convergence"). Run returns
// exactly what the from-cycle-0 package function Run returns.
//
// A Reference is immutable after NewReference and safe for concurrent use:
// each Run borrows an idle engine from its pool.
type Reference struct {
	cfg   *accel.Config
	l     *Layer
	sched *schedule

	// The CBUF contents in the datapath format; resumed engines read them
	// in place.
	cbufIn, cbufW []float32

	golden *Outcome
	// order lists the flat output offsets in the order the golden run wrote
	// them (each exactly once).
	order []int32
	// snaps holds the golden state at every tile boundary, tile (blk, grp)
	// at index blk*groups + grp.
	snaps  []snapshot
	groups int
	maxCyc int64 // the watchdog limit of every run

	// engines holds the idle engines of Run (copies of a Reference share it).
	engines *sync.Pool
}

// snapshot is the live engine state at a tile boundary — a weight-load cycle
// with r == 0 — beyond what the tile index and the layer fix: the cycle, how
// many outputs were written, and the held weight registers, which a csc.dx
// flip on the tile's first MAC cycle keeps in use (it skips the wload → wreg
// copy). wload, the input register, products and valid bits are rewritten
// before they are read, acc is all zero, r and dx are 0.
type snapshot struct {
	cycle   int64
	written int
	wreg    []float32
}

// NewReference runs the golden simulation of layer l on cfg once, recording a
// snapshot at every tile boundary and the write order.
func NewReference(cfg *accel.Config, l *Layer) (*Reference, error) {
	e, err := NewEngine(cfg, l, nil)
	if err != nil {
		return nil, err
	}
	r := &Reference{cfg: cfg, l: l, sched: e.sched, groups: int(e.numGroups()), maxCyc: e.maxCyc}
	e.fetch()
	r.cbufIn, r.cbufW = e.cbufIn, e.cbufW
	e.order = make([]int32, 0, e.out.Size())
	wregs := make([]float32, 0, int(e.numBlocks())*r.groups*e.k)
	golden := e.simulate(func() (int64, bool) {
		wregs = append(wregs, e.wreg...)
		r.snaps = append(r.snaps, snapshot{cycle: e.cycle, written: len(e.order), wreg: wregs[len(wregs)-e.k:]})
		return 0, false
	})
	r.golden, r.order = &golden, e.order
	r.engines = &sync.Pool{New: func() any { return newEngine(cfg, l, r.sched) }}
	return r, nil
}

// Golden returns the fault-free outcome. It is shared: do not modify it.
func (r *Reference) Golden() *Outcome { return r.golden }

// engine borrows an engine at the first compute cycle of the golden run,
// reading the reference's CBUFs and writing out; release returns it.
func (r *Reference) engine(out *tensor.Tensor) *Engine {
	e := r.engines.Get().(*Engine)
	e.reset()
	e.cbufIn, e.cbufW, e.maxCyc, e.out = r.cbufIn, r.cbufW, r.maxCyc, out
	return e
}

func (r *Reference) release(e *Engine) {
	e.out = nil
	r.engines.Put(e)
}

// Run simulates the layer with fault f into out and returns what the
// from-cycle-0 Run(cfg, l, &f) returns, bit for bit, with Out == out. out
// must have the layer's output shape; Run defines every element of it. Run
// allocates nothing: the engine is borrowed, and Run is small enough to
// inline, so the Outcome lives in the caller's frame unless the caller keeps
// it.
func (r *Reference) Run(f Fault, out *tensor.Tensor) *Outcome {
	o := r.run(f, out)
	return &o
}

func (r *Reference) run(f Fault, out *tensor.Tensor) Outcome {
	dst := out.Data()
	if len(dst) != len(r.golden.Out.Data()) {
		panic(fmt.Sprintf("rtlsim: Reference.Run into %v, the layer's output is %v", out.Shape(), r.golden.Out.Shape()))
	}
	e := r.engine(out)
	defer r.release(e)
	e.arm(f)
	if buf, elem := e.cdmaTarget(); buf != nil {
		// The corrupted element is in the CBUF for the whole compute phase:
		// simulate all of it on a private copy of that buffer. The schedule
		// is the golden run's, so it writes every output.
		e.priv = append(e.priv[:0], *buf...)
		*buf = e.priv
		(*buf)[elem] = e.flip32((*buf)[elem])
		return e.simulate(nil)
	}
	si := r.Locate(f.Cycle)
	if !f.FF.liveIn(si.Phase) {
		// Never fires: the golden outcome, in the caller's own tensor.
		copy(dst, r.golden.Out.Data())
		return Outcome{Out: out, Cycles: r.golden.Cycles}
	}
	// Resume from the boundary of the tile the fault cycle falls in.
	s := &r.snaps[si.Blk*r.groups+si.Grp]
	e.cycle, e.blk, e.grp = s.cycle, int64(si.Blk), int64(si.Grp)
	copy(e.wreg, s.wreg)
	clear(dst)
	r.fill(dst, r.order[:s.written])

	return e.simulate(func() (int64, bool) {
		// The fault is behind: if the engine is in a state the golden run
		// passed through at a tile boundary, the rest is the golden run's.
		if e.cycle <= f.Cycle {
			return 0, false
		}
		s := r.converged(e)
		if s == nil {
			return 0, false
		}
		// A from-cycle-0 run finishing at cycle c has passed the watchdog
		// check at every cycle below c; one that would not simulates on, so
		// the time-out reports the outputs written until then.
		cycles := e.cycle + r.golden.Cycles - s.cycle
		if cycles-1 > e.maxCyc {
			return 0, false
		}
		r.fill(dst, r.order[s.written:])
		return cycles, true
	})
}

// converged returns the golden snapshot whose state e is in at a tile
// boundary, or nil: same config registers (a flipped one never flips back),
// a tile the golden run visits, and an all-zero accumulator bank (a fault can
// leave a partial sum the write-back did not drain). The held weights need
// not match — with the fault behind, the first MAC cycle reloads them.
func (r *Reference) converged(e *Engine) *snapshot {
	s := r.sched
	if e.cfgPos != int64(s.numPos) || e.cfgCh != int64(s.numCh) || e.cfgRed != int64(s.numRed) ||
		e.blk >= e.numBlocks() || e.grp >= int64(r.groups) {
		return nil
	}
	for _, a := range e.acc {
		if math.Float32bits(a) != 0 {
			return nil
		}
	}
	return &r.snaps[int(e.blk)*r.groups+int(e.grp)]
}

// fill copies the golden outputs at the given offsets into dst.
func (r *Reference) fill(dst []float32, offsets []int32) {
	src := r.golden.Out.Data()
	for _, off := range offsets {
		dst[off] = src[off]
	}
}

// liveIn reports whether a compute-side FF can be struck in phase p — the
// phase whose step consults it. Outside it the register holds nothing the
// run will read, and the fault never fires; a CDMA register is live in the
// fetch only, where Engine.cdmaTarget resolves it.
func (ff FF) liveIn(p Phase) bool {
	switch ff {
	case FFWLoad:
		return p == PhaseLoad
	case FFWReg, FFInputReg, FFProd, FFValid:
		return p == PhaseMAC
	case FFOutReg:
		return p == PhaseWB
	case FFCfgPos, FFCfgCh, FFCfgRed, FFCtrBlk, FFCtrGrp, FFCtrR, FFCtrDx:
		return p == PhaseLoad || p == PhaseMAC || p == PhaseWB
	}
	return false
}

// ComputeWindow returns the [start, end) cycle range of the compute phase.
func (r *Reference) ComputeWindow() (start, end int64) {
	return r.sched.fetchCycles(), r.golden.Cycles
}

// Locate maps an absolute cycle of the golden run to its schedule
// coordinates.
func (r *Reference) Locate(cycle int64) SiteInfo {
	return r.sched.locate(r.cfg.AtomicK, r.cfg.WeightHoldCycles, cycle)
}

// OperandIndices resolves the input element (for the broadcast input
// register) and weight element (for MAC m's weight registers) live at the
// site. A negative index means no such operand is live (for the input: a
// padding zero).
func (r *Reference) OperandIndices(si SiteInfo, mac int) (inIdx, wIdx int) {
	return r.sched.operandIndices(r.cfg, si, mac)
}

// OutIndexOf converts (position, channel) to the output tensor multi-index.
func (r *Reference) OutIndexOf(p, c int) ([]int, error) {
	return r.sched.outIndexOf(p, c)
}
