package rtlsim

import (
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// FF names the simulated flip-flop groups. Per-MAC FFs additionally carry a
// MAC index in the Fault.
type FF string

// Datapath FFs.
const (
	// FFCDMAIn0 and FFCDMAIn1 are the two input-fetch pipeline registers
	// before the on-chip buffer (paper category: before CBUF / input).
	FFCDMAIn0 FF = "cdma.in0"
	FFCDMAIn1 FF = "cdma.in1"
	// FFCDMAWt0 and FFCDMAWt1 are the weight-fetch pipeline registers
	// (before CBUF / weight).
	FFCDMAWt0 FF = "cdma.wt0"
	FFCDMAWt1 FF = "cdma.wt1"
	// FFInputReg is the broadcast input register feeding all MACs
	// (between CBUF & MAC / input — Fig 2a target a4).
	FFInputReg FF = "csc.input"
	// FFWLoad is a MAC's weight staging register (Fig 2a target a1).
	FFWLoad FF = "mac.wload"
	// FFWReg is a MAC's held weight register, value reused for up to t
	// cycles (Fig 2a target a2).
	FFWReg FF = "mac.wreg"
	// FFProd is a MAC's multiplier output register (partial sum, RF = 1).
	FFProd FF = "mac.prod"
	// FFOutReg is the post-accumulation output register at write-back
	// (output, RF = 1).
	FFOutReg FF = "sdp.out"
)

// Local control FFs.
const (
	// FFValid is a MAC's product-valid bit: flipping it drops or corrupts
	// exactly the neuron the MAC is computing that cycle (local control).
	FFValid FF = "mac.valid"
)

// Global control FFs.
const (
	// FFCfgPos, FFCfgCh and FFCfgRed are layer configuration registers
	// (output positions, channels, reduction length).
	FFCfgPos FF = "cfg.pos"
	FFCfgCh  FF = "cfg.ch"
	FFCfgRed FF = "cfg.red"
	// FFCtrBlk, FFCtrGrp, FFCtrR and FFCtrDx are the sequencer counters.
	FFCtrBlk FF = "csc.blk"
	FFCtrGrp FF = "csc.grp"
	FFCtrR   FF = "csc.r"
	FFCtrDx  FF = "csc.dx"
)

// Class returns the FF's fault-model class.
func (f FF) Class() accel.FFClass {
	switch f {
	case FFValid:
		return accel.LocalControl
	case FFCfgPos, FFCfgCh, FFCfgRed, FFCtrBlk, FFCtrGrp, FFCtrR, FFCtrDx:
		return accel.GlobalControl
	default:
		return accel.Datapath
	}
}

// Fault is a single-cycle fault in a single FF register: one bit flip, or —
// per the paper's fault abstraction, which also covers "multiple single-cycle
// bit-flips in a single register" — several bits flipped in the same cycle.
type Fault struct {
	FF FF
	// Mac selects the MAC unit for per-MAC FFs (ignored otherwise); it wraps
	// modulo the design's MAC count.
	Mac int
	// Bit is the flipped bit position.
	Bit int
	// ExtraBits lists additional bit positions flipped in the same cycle
	// (multi-bit upsets in one register).
	ExtraBits []int
	// Cycle is the absolute cycle at which the flip occurs.
	Cycle int64
}

// flipCounter applies the fault's bit flips to a counter/config register,
// masked to 20 bits to bound runaway loops (the watchdog catches the rest).
func (f *Fault) flipCounter(v int64) int64 {
	v ^= 1 << uint(f.Bit%20)
	for _, b := range f.ExtraBits {
		v ^= 1 << uint(b%20)
	}
	return v
}

// Outcome is the result of one simulation run.
type Outcome struct {
	// Out is the layer output (valid even on time-out: whatever was written,
	// zeros elsewhere). Reference.Run writes it into the caller's tensor.
	Out *tensor.Tensor
	// Cycles is the number of simulated cycles.
	Cycles int64
	// TimedOut reports that the run exceeded the watchdog limit — the
	// "system anomaly" outcome.
	TimedOut bool
	// FaultApplied reports whether the fault's target was live at the fault
	// cycle (a fault aimed at an inactive FF or out-of-range cycle never
	// fires and is trivially masked).
	FaultApplied bool
}

// Engine simulates one layer execution.
type Engine struct {
	l     *Layer
	sched *schedule
	codec numerics.Codec
	half  bool // FP16 datapath: advance's MAC is one fused row primitive
	k, t  int

	// CBUF contents (copied from DRAM through the CDMA registers), stored in
	// the datapath format. Engines resumed by a Reference share its buffers
	// read-only.
	cbufIn, cbufW []float32

	// Datapath registers. The broadcast input, the multiplier output and the
	// valid bit of a MAC are rewritten before they are read, so they are
	// locals of the MAC cycle.
	wload []float32
	wreg  []float32
	acc   []float32 // acc[dx*k+m]

	// col is rows' column of one position's input operands; priv is a
	// Reference engine's private copy of the CBUF a CDMA fault strikes.
	col, priv []float32

	// Config registers and sequencer counters (bit-flippable state); none
	// of them ever goes negative (flips stay below bit 20).
	cfgPos, cfgCh, cfgRed int64
	blk, grp, r, dx, wb   int64
	phase                 int

	out *tensor.Tensor
	// order, when non-nil, records the flat offset of every output write
	// (NewReference's golden run).
	order     []int32
	cycle     int64
	fault     Fault
	hasFault  bool
	memFaults []MemFault
	fired     bool
	maxCyc    int64

	// detailed forces the per-MAC path on every cycle: the test seam that
	// holds advance and the tile skip to it.
	detailed bool
}

const (
	phaseLoad = iota
	phaseMAC
	phaseWB
	phaseDone
)

// NewEngine prepares a simulation of layer l on design cfg with an optional
// fault (nil for a golden run). The fault is copied.
func NewEngine(cfg *accel.Config, l *Layer, fault *Fault) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched, err := l.newSchedule()
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg, l, sched)
	e.maxCyc = 4*sched.goldenCycles(e.k, e.t) + 1024
	e.out = tensor.New(sched.outShape()...)
	if fault != nil {
		e.arm(*fault)
	}
	return e, nil
}

// newEngine builds an engine at the start of the compute phase with empty
// CBUFs, no output and no watchdog limit; fetch or a Reference fills the
// first, NewEngine or a Reference sets the other two.
func newEngine(cfg *accel.Config, l *Layer, sched *schedule) *Engine {
	k, t := cfg.AtomicK, cfg.WeightHoldCycles
	regs := make([]float32, 2*k+t*k+sched.numRed)
	e := &Engine{
		l: l, sched: sched, codec: l.Codec, half: l.Codec.Precision() == numerics.FP16,
		k: k, t: t,
		wload: regs[:k:k], wreg: regs[k : 2*k : 2*k], acc: regs[2*k : 2*k+t*k : 2*k+t*k], col: regs[2*k+t*k:],
	}
	e.reset()
	return e
}

// reset puts the engine at the first compute cycle of a fault-free run: empty
// registers, the layer's config, no fault, the lean path. It keeps the CBUFs,
// the output and the watchdog limit.
func (e *Engine) reset() {
	s := e.sched
	clear(e.wload)
	clear(e.wreg)
	clear(e.acc)
	e.cfgPos, e.cfgCh, e.cfgRed = int64(s.numPos), int64(s.numCh), int64(s.numRed)
	e.blk, e.grp, e.r, e.dx, e.wb, e.phase = 0, 0, 0, 0, 0, phaseLoad
	e.cycle = s.fetchCycles()
	e.fault, e.hasFault, e.fired, e.detailed = Fault{}, false, false, false
}

// arm installs the fault, wrapping its MAC index into range.
func (e *Engine) arm(f Fault) {
	f.Mac = ((f.Mac % e.k) + e.k) % e.k
	e.fault, e.hasFault = f, true
}

// Run executes the simulation from cycle 0 to completion or time-out.
func (e *Engine) Run() (*Outcome, error) {
	e.fetch()
	o := e.simulate(nil)
	return &o, nil
}

// simulate runs the compute phase to completion or to the watchdog limit: the
// fault cycle (every cycle, when detailed) steps, a tile that writes nothing
// is skipped, and advance runs the rest up to the next tile boundary.
// boundary, when non-nil, is called before every tile-boundary cycle (a
// weight load with r == 0); when it reports done, the simulation ends there
// with the cycle count it returns.
func (e *Engine) simulate(boundary func() (cycles int64, done bool)) Outcome {
	for e.phase != phaseDone {
		if e.cycle > e.maxCyc {
			return Outcome{Out: e.out, Cycles: e.cycle, TimedOut: true, FaultApplied: e.fired}
		}
		atBoundary := e.phase == phaseLoad && e.r == 0
		if boundary != nil && atBoundary {
			if cycles, done := boundary(); done {
				return Outcome{Out: e.out, Cycles: cycles, FaultApplied: e.fired}
			}
		}
		// stop is the first cycle advance must not run: the fault's or the
		// first one past the watchdog limit.
		stop := e.maxCyc + 1
		if e.hasFault && e.fault.Cycle >= e.cycle && e.fault.Cycle < stop {
			stop = e.fault.Cycle
		}
		switch {
		case e.detailed || e.cycle == stop:
			e.step()
			e.cycle++
		case atBoundary && e.skipTile(stop):
		default:
			e.advance(stop)
		}
	}
	return Outcome{Out: e.out, Cycles: e.cycle, FaultApplied: e.fired}
}

// fetch streams the operands into the CBUF through the CDMA registers,
// applying CDMA faults to the element occupying the targeted register at the
// fault cycle, and leaves the engine at the first compute cycle.
func (e *Engine) fetch() {
	// Values are stored in the datapath format.
	e.cbufIn = e.codec.RoundSlice(e.l.Input.Data())
	e.cbufW = e.codec.RoundSlice(e.l.W.Data())
	if buf, elem := e.cdmaTarget(); buf != nil {
		(*buf)[elem] = e.flip32((*buf)[elem])
	}
	for _, m := range e.memFaults {
		buf := e.cbufIn
		if m.Weight {
			buf = e.cbufW
		}
		if m.Word < 0 || m.Word >= len(buf) {
			continue
		}
		word := &buf[m.Word]
		for _, b := range m.Bits {
			*word = e.codec.FlipBit(*word, b)
		}
		e.fired = true
	}
}

// cdmaTarget resolves a CDMA fault to the CBUF element passing through the
// targeted pipeline register at the fault cycle: stage 0 holds element
// Cycle, stage 1 element Cycle-1. buf points at the engine's buffer (a
// Reference swaps in a private copy before striking it) and is nil when
// there is no CDMA fault or the register holds no element of the stream then.
func (e *Engine) cdmaTarget() (buf *[]float32, elem int64) {
	switch e.fault.FF {
	case FFCDMAIn0:
		buf, elem = &e.cbufIn, e.fault.Cycle
	case FFCDMAIn1:
		buf, elem = &e.cbufIn, e.fault.Cycle-1
	case FFCDMAWt0:
		buf, elem = &e.cbufW, e.fault.Cycle
	case FFCDMAWt1:
		buf, elem = &e.cbufW, e.fault.Cycle-1
	}
	if buf == nil || elem < 0 || elem >= int64(len(*buf)) {
		return nil, 0
	}
	return buf, elem
}

// hit reports whether the fault targets ff (and MAC m, when >= 0). It is
// consulted on the fault cycle only.
func (e *Engine) hit(ff FF, m int) bool {
	return e.fault.FF == ff && (m < 0 || e.fault.Mac == m)
}

// flip32 applies the fault's bit flips (Bit, then every ExtraBits entry) to
// a value stored in the codec's format and marks the fault as fired.
func (e *Engine) flip32(v float32) float32 {
	e.fired = true
	v = e.codec.FlipBit(v, e.fault.Bit)
	for _, b := range e.fault.ExtraBits {
		v = e.codec.FlipBit(v, b)
	}
	return v
}

// flipCtr flips bits of a counter/config register and marks the fault as
// fired.
func (e *Engine) flipCtr(v int64) int64 {
	e.fired = true
	return e.fault.flipCounter(v)
}

// applyControlFaults handles config/counter targets at the start of the
// fault cycle.
func (e *Engine) applyControlFaults() {
	switch e.fault.FF {
	case FFCfgPos:
		e.cfgPos = e.flipCtr(e.cfgPos)
	case FFCfgCh:
		e.cfgCh = e.flipCtr(e.cfgCh)
	case FFCfgRed:
		e.cfgRed = e.flipCtr(e.cfgRed)
	case FFCtrBlk:
		e.blk = e.flipCtr(e.blk)
	case FFCtrGrp:
		e.grp = e.flipCtr(e.grp)
	case FFCtrR:
		e.r = e.flipCtr(e.r)
	case FFCtrDx:
		e.dx = e.flipCtr(e.dx)
	}
}

// geometry derived combinationally from the (possibly corrupted) config regs.
func (e *Engine) numBlocks() int64 {
	if e.cfgPos <= 0 {
		return 0
	}
	return (e.cfgPos + int64(e.t) - 1) / int64(e.t)
}

func (e *Engine) numGroups() int64 {
	if e.cfgCh <= 0 {
		return 0
	}
	return (e.cfgCh + int64(e.k) - 1) / int64(e.k)
}

func (e *Engine) blockSize() int64 {
	bs := e.cfgPos - e.blk*int64(e.t)
	if bs > int64(e.t) {
		bs = int64(e.t)
	}
	if bs < 1 {
		bs = 1
	}
	return bs
}

// readIn fetches an input operand from CBUF with address clamping (a
// corrupted sequencer can generate out-of-range addresses; real hardware
// would read whatever the wrapped address holds). pad reports a zero-padding
// operand: the sequencer gates the corresponding MAC (no accumulation), so a
// non-finite weight cannot poison padded positions.
func (e *Engine) readIn(p, r int64) (v float32, pad bool) {
	s := e.sched
	np, nr := int64(s.numPos), int64(s.numRed)
	pi := int(((p % np) + np) % np)
	ri := int(((r % nr) + nr) % nr)
	idx := s.aIndex(pi, ri)
	if idx < 0 {
		return 0, true
	}
	return e.cbufIn[idx], false
}

// readW fetches a weight operand with clamping.
func (e *Engine) readW(r, c int64) float32 {
	s := e.sched
	nr, nc := int64(s.numRed), int64(s.numCh)
	ri := int(((r % nr) + nr) % nr)
	ci := int(((c % nc) + nc) % nc)
	return e.cbufW[s.wIndex(ri, ci)]
}

// wrap is the address clamping of readIn and readW for a register that is
// never negative, dividing only when a corrupted sequencer is out of range.
func wrap(v int64, n int) int {
	if v >= int64(n) {
		v %= int64(n)
	}
	return int(v)
}

// step advances the state machine one cycle at per-MAC detail, with the
// fault's taps: the fault cycle's path, and every cycle's when detailed.
func (e *Engine) step() {
	k := int64(e.k)
	hot := e.hasFault && e.cycle == e.fault.Cycle
	if hot {
		e.applyControlFaults()
	}
	switch e.phase {
	case phaseLoad:
		// Parallel load of the group's weights into the staging registers.
		for m := 0; m < e.k; m++ {
			c := e.grp*k + int64(m)
			if c < e.cfgCh && c < int64(e.sched.numCh) {
				e.wload[m] = e.readW(e.r, c)
			} else {
				e.wload[m] = 0
			}
			if hot && e.hit(FFWLoad, m) {
				e.wload[m] = e.flip32(e.wload[m])
			}
		}
		e.dx = 0
		e.phase = phaseMAC

	case phaseMAC:
		if e.dx == 0 {
			copy(e.wreg, e.wload)
		}
		e.macCycle(e.blk*int64(e.t)+e.dx, hot)
		// One load cycle per reduction index, then blockSize MAC cycles on
		// the held weights (a new input is fetched each cycle): the NVDLA
		// schedule's single weight load per (r, group).
		e.dx++
		if e.dx >= e.blockSize() {
			e.endRow()
		}

	case phaseWB:
		e.drain(1, hot)
	}
}

// advance runs the fault-free cycles before stop a row at a time, to the end
// of the current tile at most: a weight load is one copy out of a CBUF row, a
// MAC cycle one row update of the position's accumulators, the write-back
// one drain; whole FP16 rows go a position at a time (rows). Each
// accumulator sees its products in the order step adds them.
// When no fault cycle is left before the watchdog limit and the MAC phase
// cannot reach its write-back by then, the run ends at once: a MAC phase
// writes no output.
func (e *Engine) advance(stop int64) {
	s, k, bs := e.sched, int64(e.k), e.blockSize()
	if e.phase != phaseWB && stop > e.maxCyc {
		left := bs - e.dx // MAC cycles left in this row
		if e.phase == phaseLoad {
			left = 1 + bs
		}
		if e.cycle+left+max(e.cfgRed-e.r-1, 0)*(1+bs) > e.maxCyc {
			e.cycle = e.maxCyc + 1
			return
		}
	}
	for e.phase != phaseWB {
		if e.phase == phaseLoad {
			if e.cycle >= stop {
				return
			}
			if e.rows(stop, bs) {
				continue
			}
			e.load()
			e.dx, e.phase = 0, phaseMAC
			e.cycle++
		}
		// dx < bs: a flipped dx meets the block-size test within its cycle,
		// and a load resets it.
		end := min(bs, e.dx+stop-e.cycle)
		if end <= e.dx {
			return
		}
		if e.dx == 0 {
			copy(e.wreg, e.wload)
		}
		ri, in, wreg := wrap(e.r, s.numRed), e.cbufIn, e.wreg
		for dx := e.dx; dx < end; dx++ {
			idx := s.aIndex(wrap(e.blk*int64(e.t)+dx, s.numPos), ri)
			if uint(idx) >= uint(len(in)) {
				continue // padding (-1): the sequencer gates every MAC
			}
			// Register operands are codec-representable, so the operand
			// rounding of Codec.Mul is the identity and MulPre — fused with
			// the accumulate for FP16 — yields the same bits.
			a, acc := in[idx], e.acc[dx*k:][:len(wreg)]
			if e.half {
				numerics.HalfMulAddRow(acc, a, wreg)
			} else {
				for m, w := range wreg {
					acc[m] += e.codec.MulPre(w, a)
				}
			}
		}
		e.cycle += end - e.dx
		if e.dx = end; e.dx < bs {
			return
		}
		e.endRow()
	}
	if n := min(bs*k-e.wb, stop-e.cycle); n > 0 {
		e.drain(n, false)
		e.cycle += n
	}
}

// rows runs, at a weight-load cycle of an FP16 layer, every whole reduction
// row before stop in one move, position by position, and reports whether it
// did: the rows from r on that lie in the layer (none wraps) and in cfg.red,
// at least two, with cfg.ch at least the layer's channels. Each position's
// column of input operands goes through HalfMulAddPanel against the rows'
// weights, a run of rows between padding operands at a time (the sequencer
// gates a padded MAC), so each accumulator still takes its products in
// increasing r, as the row loop adds them (DESIGN.md §12.3). Only MACs with a
// channel accumulate: the others' partial sums are never written and their
// write-back clears them. The registers end as the row loop leaves them.
func (e *Engine) rows(stop, bs int64) bool {
	s, k := e.sched, int64(e.k)
	n := min(min(e.cfgRed, int64(s.numRed))-e.r, (stop-e.cycle)/(1+bs))
	if !e.half || e.cfgCh < int64(s.numCh) || n < 2 {
		return false
	}
	if live := min(int64(s.numCh)-e.grp*k, k); live > 0 {
		r, nr, stride := int(e.r), int(n), s.numCh
		w := e.cbufW[s.wIndex(r, int(e.grp*k)):]
		for dx := int64(0); dx < bs; dx++ {
			acc := e.acc[dx*k:][:live]
			p := wrap(e.blk*int64(e.t)+dx, s.numPos)
			if !s.conv { // no padding: the column is a run of the input row
				numerics.HalfMulAddPanel(acc, e.cbufIn[s.aIndex(p, r):][:nr], w, nil, stride, nil)
				continue
			}
			e.runs(acc, s.pos[p], s.red[r:][:nr], w, stride)
		}
	}
	e.r += n - 1
	e.load()
	copy(e.wreg, e.wload)
	e.cycle += n * (1 + bs)
	e.endRow()
	return true
}

// runs adds to acc the products of one conv position, window origin pp, over
// the reduction rows red against their weight rows w, stride apart: one
// HalfMulAddPanel call per run of operands between padding ones.
func (e *Engine) runs(acc []float32, pp convPos, red []convRed, w []float32, stride int) {
	s, col := e.sched, e.col
	for i := 0; i < len(red); {
		i += s.padding(pp, red[i:])
		j := i + e.gather(col[i:], pp, red[i:])
		if j > i {
			numerics.HalfMulAddPanel(acc, col[i:j], w[i*stride:], nil, stride, nil)
		}
		i = j
	}
}

// gather copies into col the input operands of the position with window
// origin pp over red, up to the first padding one, and returns how many it
// copied. col must be at least as long as red.
func (e *Engine) gather(col []float32, pp convPos, red []convRed) int {
	s, in := e.sched, e.cbufIn
	col = col[:len(red)]
	for j, rr := range red {
		off := s.inOffset(pp, rr)
		if uint(off) >= uint(len(in)) { // -1: padding
			return j
		}
		col[j] = in[off]
	}
	return len(red)
}

// skipTile runs a tile that writes nothing — all its positions or all its
// channels out of the layer's range — in one move when it ends by stop, and
// reports whether it did. Its write-back drains what its MACs fill, so
// of its cycles only the weights of its last load survive (DESIGN.md §12.1).
func (e *Engine) skipTile(stop int64) bool {
	s, k, bs := e.sched, int64(e.k), e.blockSize()
	rows := max(e.cfgRed, 1)
	end := e.cycle + rows*(1+bs) + bs*k
	if e.blk*int64(e.t) < int64(s.numPos) && e.grp*k < int64(s.numCh) || end > stop {
		return false
	}
	e.r = rows - 1
	e.load()
	copy(e.wreg, e.wload)
	clear(e.acc[:bs*k])
	e.r, e.cycle = 0, end
	e.nextTile()
	return true
}

// load fills the staging registers with row r of the group's weights, zero
// for a MAC with no channel.
func (e *Engine) load() {
	s, k := e.sched, int64(e.k)
	n := 0 // MACs with a channel: a run of row r of the weights
	if live := min(e.cfgCh, int64(s.numCh)) - e.grp*k; live > 0 {
		n = copy(e.wload[:min(live, k)], e.cbufW[s.wIndex(wrap(e.r, s.numRed), int(e.grp*k)):])
	}
	clear(e.wload[n:])
}

// endRow follows a reduction row's last MAC cycle: the next row's load, or
// the write-back after the last.
func (e *Engine) endRow() {
	e.dx = 0
	e.r++
	if e.r >= e.cfgRed {
		e.r, e.wb = 0, 0
		e.phase = phaseWB
	} else {
		e.phase = phaseLoad
	}
}

// drain runs n write-back cycles, one per entry wb: accumulator wb plus bias,
// saturated, through the output register to its output when that is in
// range. The last entry ends the tile. hot (n == 1) applies the fault's tap on
// the output register.
func (e *Engine) drain(n int64, hot bool) {
	s, k := e.sched, int64(e.k)
	p, m := e.blk*int64(e.t)+e.wb/k, e.wb%k // wb = dx*k + m, and dx < bs <= t
	for end := e.wb + n; e.wb < end; e.wb++ {
		c := e.grp*k + m
		acc := e.acc[e.wb]
		if e.l.Bias != nil && c < int64(len(e.l.Bias)) {
			acc += e.l.Bias[c]
		}
		outv := e.codec.Saturate(acc)
		if hot && e.hit(FFOutReg, -1) {
			outv = e.flip32(outv)
		}
		if p < int64(s.numPos) && c < int64(s.numCh) {
			off := s.outOffset(int(p), int(c))
			e.out.Data()[off] = outv
			if e.order != nil {
				e.order = append(e.order, int32(off))
			}
		}
		e.acc[e.wb] = 0
		if m++; m == k {
			p, m = p+1, 0
		}
	}
	if e.wb >= e.blockSize()*k {
		e.nextTile()
	}
}

// nextTile leaves a tile after its write-back: the next channel group, the
// next block's first, or the end of the layer.
func (e *Engine) nextTile() {
	e.grp++
	if e.grp >= e.numGroups() {
		e.grp = 0
		e.blk++
		if e.blk >= e.numBlocks() {
			e.phase = phaseDone
			return
		}
	}
	e.phase = phaseLoad
}

// macCycle is one MAC cycle at per-MAC detail: the wrapped operand read and
// every fault tap of the datapath (held weight, broadcast input, product,
// valid bit).
func (e *Engine) macCycle(p int64, hot bool) {
	// Held weight registers can be struck at any MAC cycle; the flip
	// persists for the rest of the hold window (Fig 2a target a2).
	if hot && e.fault.FF == FFWReg {
		e.wreg[e.fault.Mac] = e.flip32(e.wreg[e.fault.Mac])
	}
	in, pad := e.readIn(p, e.r)
	if hot && e.hit(FFInputReg, -1) {
		in = e.flip32(in)
	}
	acc := e.acc[(int(e.dx)%e.t)*e.k:]
	for m := 0; m < e.k; m++ {
		prod := e.codec.Mul(e.wreg[m], in)
		if hot && e.hit(FFProd, m) {
			prod = e.flip32(prod)
		}
		valid := !pad
		if hot && e.hit(FFValid, m) {
			valid = false // drop this product
			e.fired = true
		}
		if valid {
			acc[m] += prod
		}
	}
}

// MemFault is a memory error: bit flips in one word of the on-chip buffer,
// present from the moment the buffer is filled (paper Sec. III-E).
type MemFault struct {
	// Weight selects the weight buffer; false selects the input buffer.
	Weight bool
	// Word is the flat element index.
	Word int
	// Bits are the flipped bit positions.
	Bits []int
}

// RunWithMemoryFaults simulates layer l with a set of memory errors in the
// on-chip buffer (and no FF fault).
func RunWithMemoryFaults(cfg *accel.Config, l *Layer, mems []MemFault) (*Outcome, error) {
	e, err := NewEngine(cfg, l, nil)
	if err != nil {
		return nil, err
	}
	e.memFaults = mems
	return e.Run()
}

// Run is the package-level convenience: simulate layer l on cfg from cycle 0
// with fault f (nil for golden), which it does not modify. A Reference gives
// the same outcomes for many faults on one layer at a fraction of the cost.
func Run(cfg *accel.Config, l *Layer, f *Fault) (*Outcome, error) {
	e, err := NewEngine(cfg, l, f)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// GoldenCycles returns the fault-free cycle count of layer l on cfg, used by
// validation to sample fault cycles and by the speedup comparison.
func GoldenCycles(cfg *accel.Config, l *Layer) (int64, error) {
	_, end, err := ComputeWindow(cfg, l)
	return end, err
}

// ComputeWindow returns the [start, end) cycle range of the compute phase,
// the live window for MAC-side fault targets.
func ComputeWindow(cfg *accel.Config, l *Layer) (start, end int64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	s, err := l.newSchedule()
	if err != nil {
		return 0, 0, err
	}
	return s.fetchCycles(), s.goldenCycles(cfg.AtomicK, cfg.WeightHoldCycles), nil
}

// String renders a fault for diagnostics.
func (f *Fault) String() string {
	return fmt.Sprintf("%s[mac=%d] bit %d @ cycle %d", f.FF, f.Mac, f.Bit, f.Cycle)
}
