package rtlsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

var allFFs = []FF{
	FFCDMAIn0, FFCDMAIn1, FFCDMAWt0, FFCDMAWt1, FFInputReg, FFWLoad, FFWReg, FFProd, FFOutReg, FFValid,
	FFCfgPos, FFCfgCh, FFCfgRed, FFCtrBlk, FFCtrGrp, FFCtrR, FFCtrDx,
}

// perMAC reports whether a fault in ff selects its target by Fault.Mac.
func perMAC(ff FF) bool {
	return ff == FFWLoad || ff == FFWReg || ff == FFProd || ff == FFValid
}

// tinyDesign is nvdla-small shrunk to 4 MACs holding weights for 4 cycles, so
// that a layer of a few hundred cycles still has several tiles, a ragged last
// block and a ragged last channel group.
func tinyDesign() *accel.Config {
	cfg := nvdla()
	cfg.AtomicK, cfg.WeightHoldCycles = 4, 4
	return cfg
}

func matmulLayer(seed int64, codec numerics.Codec, m, kk, n int) *Layer {
	rng := rand.New(rand.NewSource(seed))
	a, b := tensor.New(m, kk), tensor.New(kk, n)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	return MatMulLayer(accel.LayerMatMul, a, b, nil, codec)
}

// tableIIILayers builds the six Table III validation shapes (campaign's
// TableIIIWorkloads) in the given datapath format.
func tableIIILayers(codec numerics.Codec) map[string]*Layer {
	conv := func(seed int64, h, w, inC, outC, stride int) *Layer {
		l, _, _ := randConvLayer(seed, codec, h, w, inC, outC, 3, stride, 1)
		return l
	}
	fc := func(seed int64, rows, in, out int) *Layer {
		l, _, _ := fcLayer(seed, rows, in, out)
		l.Codec = codec
		return l
	}
	return map[string]*Layer{
		"inception-conv3x3":  conv(101, 8, 8, 4, 18, 1),
		"resnet-conv3x3":     conv(102, 9, 7, 3, 20, 1),
		"yolo-conv3x3":       conv(103, 10, 10, 4, 12, 2),
		"transformer-fc":     fc(104, 20, 24, 18),
		"rnn-lstm-fc":        fc(105, 8, 30, 16),
		"transformer-matmul": matmulLayer(106, codec, 18, 16, 18),
	}
}

// runDetailed is the oracle: the from-cycle-0 simulation with every cycle on
// the per-MAC path.
func runDetailed(t testing.TB, cfg *accel.Config, l *Layer, f *Fault) *Outcome {
	t.Helper()
	return runLimited(t, cfg, l, f, 0, true)
}

// runLimited is the from-cycle-0 simulation under watchdog limit limit (0:
// the design's), on the per-MAC path at every cycle when detailed.
func runLimited(t testing.TB, cfg *accel.Config, l *Layer, f *Fault, limit int64, detailed bool) *Outcome {
	t.Helper()
	e, err := NewEngine(cfg, l, f)
	if err != nil {
		t.Fatal(err)
	}
	if limit > 0 {
		e.maxCyc = limit
	}
	e.detailed = detailed
	o, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// staleOut returns a tensor of ref's output shape full of a NaN no run
// produces, so an element Reference.Run leaves undefined shows.
func staleOut(ref *Reference) *tensor.Tensor {
	out := tensor.New(ref.Golden().Out.Shape()...)
	for i := range out.Data() {
		out.Data()[i] = math.Float32frombits(0x7fc0dead)
	}
	return out
}

// sameOutcome compares two outcomes bit for bit (NaN payloads and zero signs
// included).
func sameOutcome(got, want *Outcome) error {
	if got.Cycles != want.Cycles || got.TimedOut != want.TimedOut || got.FaultApplied != want.FaultApplied {
		return fmt.Errorf("cycles %d, timed out %v, applied %v; want %d, %v, %v",
			got.Cycles, got.TimedOut, got.FaultApplied, want.Cycles, want.TimedOut, want.FaultApplied)
	}
	g, w := got.Out.Data(), want.Out.Data()
	if len(g) != len(w) {
		return fmt.Errorf("%d outputs, want %d", len(g), len(w))
	}
	for i := range w {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			return fmt.Errorf("out[%d] = %#08x, want %#08x", i, math.Float32bits(g[i]), math.Float32bits(w[i]))
		}
	}
	return nil
}

// Reference.Run must return what the from-cycle-0 simulation returns for
// every FF at every cycle — before, inside and past the run — on a conv with
// padding, stride, a ragged last block and a channel count that is no
// multiple of k, and on a matmul. Every run reuses one output tensor, so an
// element a run leaves undefined carries the previous run's value.
func TestReferenceRunExhaustive(t *testing.T) {
	cfg := tinyDesign()
	codec := numerics.MustCodec(numerics.FP16, 0)
	conv, _, _ := randConvLayer(51, codec, 5, 4, 2, 6, 2, 2, 1) // 3×3 output = 9 positions
	layers := map[string]*Layer{"conv": conv, "matmul": matmulLayer(52, codec, 6, 5, 7)}
	bits := []int{0, 1, 3, 9, 14, 15}
	if testing.Short() {
		bits = []int{1, 14}
	}
	for name, l := range layers {
		ref, err := NewReference(cfg, l)
		if err != nil {
			t.Fatal(err)
		}
		runs, converged, out := 0, 0, staleOut(ref)
		for _, ff := range allFFs {
			macs := 1
			if perMAC(ff) {
				macs = cfg.AtomicK
			}
			for cycle := int64(-2); cycle < ref.Golden().Cycles+6; cycle++ {
				for mac := 0; mac < macs; mac++ {
					for _, bit := range bits {
						f := Fault{FF: ff, Mac: mac, Bit: bit, Cycle: cycle}
						got, want := ref.Run(f, out), runDetailed(t, cfg, l, &f)
						if err := sameOutcome(got, want); err != nil {
							t.Fatalf("%s: %v: %v", name, &f, err)
						}
						runs++
						if want.FaultApplied && !want.TimedOut && want.Cycles == ref.Golden().Cycles {
							converged++
						}
					}
				}
			}
		}
		if converged < runs/10 {
			t.Errorf("%s: only %d of %d faults fired and finished on time", name, converged, runs)
		}
	}
}

// The same on the Table III shapes at every datapath format the study uses,
// with multi-bit faults, wrapped MAC indices and out-of-range bit positions,
// from four goroutines at once (a Reference is shared read-only).
func TestReferenceRunRandom(t *testing.T) {
	cfg := nvdla()
	perLayer := 120
	if testing.Short() {
		perLayer = 30
	}
	for _, prec := range []numerics.Precision{numerics.FP16, numerics.INT8, numerics.INT16} {
		for name, l := range tableIIILayers(numerics.MustCodec(prec, 4)) {
			ref, err := NewReference(cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameOutcome(ref.Golden(), runDetailed(t, cfg, l, nil)); err != nil {
				t.Fatalf("%v %s: golden: %v", prec, name, err)
			}
			rng := rand.New(rand.NewSource(int64(len(name)) + int64(prec)))
			faults := make([]Fault, perLayer)
			for i := range faults {
				faults[i] = Fault{
					FF: allFFs[rng.Intn(len(allFFs))], Mac: rng.Intn(48) - 16,
					Bit: rng.Intn(24) - 2, Cycle: rng.Int63n(ref.Golden().Cycles+40) - 20,
				}
				if rng.Intn(3) == 0 {
					faults[i].ExtraBits = []int{rng.Intn(16), rng.Intn(16)}
				}
			}
			got := make([]*Outcome, len(faults))
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(faults); i += 4 {
						got[i] = ref.Run(faults[i], staleOut(ref))
					}
				}(g)
			}
			wg.Wait()
			for i := range faults {
				if err := sameOutcome(got[i], runDetailed(t, cfg, l, &faults[i])); err != nil {
					t.Fatalf("%v %s: %v %v: %v", prec, name, &faults[i], faults[i].ExtraBits, err)
				}
			}
		}
	}
}

// A csc.dx flip on a tile's first MAC cycle skips the wload → wreg copy, so
// the MACs multiply by the weights the previous tile left in the held
// registers: a resumed run must start with them.
func TestReferenceRestoresHeldWeights(t *testing.T) {
	cfg := tinyDesign()
	l := matmulLayer(53, numerics.MustCodec(numerics.FP16, 0), 6, 5, 7)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	tile := 1
	f := Fault{FF: FFCtrDx, Bit: 0, Cycle: ref.snaps[tile].cycle + 1}
	want := runDetailed(t, cfg, l, &f)
	if err := sameOutcome(ref.Run(f, staleOut(ref)), want); err != nil {
		t.Fatalf("%v: %v", &f, err)
	}
	if len(want.Out.DiffIndices(ref.Golden().Out, 0)) == 0 {
		t.Fatal("the flip is masked: the case does not reach the stale weights")
	}
	// The outcome depends on the snapshot's weights: forget them and it moves.
	blank, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	clear(blank.snaps[tile].wreg)
	if sameOutcome(blank.Run(f, staleOut(blank)), want) == nil {
		t.Error("a resume without the held weights gives the same outcome: the case does not pin them")
	}
}

// Runs that end at the watchdog are simulated to it: a flipped config
// register never matches a golden snapshot, and a re-converged run whose
// projected length passes the limit reports the time-out, with the outputs
// written until then, not a finish.
func TestReferenceKeepsWatchdog(t *testing.T) {
	cfg := tinyDesign()
	l := matmulLayer(54, numerics.MustCodec(numerics.FP16, 0), 10, 5, 7)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := ref.ComputeWindow()
	for _, f := range []Fault{
		{FF: FFCfgRed, Bit: 19, Cycle: start + 5},
		{FF: FFCfgPos, Bit: 18, Cycle: start + 30},
	} {
		want := runDetailed(t, cfg, l, &f)
		if !want.TimedOut {
			t.Fatalf("%v: expected a time-out", &f)
		}
		if err := sameOutcome(ref.Run(f, staleOut(ref)), want); err != nil {
			t.Errorf("%v: %v", &f, err)
		}
	}

	// cfg.red 5 → 7 in the first tile: every tile runs two more reduction
	// rows, so the last tile (2 positions) writes back from end − 2k on. A
	// limit on either side of that edge ends the run in its MAC phase or
	// after its first write.
	f := Fault{FF: FFCfgRed, Bit: 1, Cycle: start + 5}
	long := runDetailed(t, cfg, l, &f)
	if long.TimedOut || long.Cycles <= ref.Golden().Cycles+2*int64(cfg.AtomicK) {
		t.Fatalf("%v: cycles %d, timed out %v: expected a longer run that finishes", &f, long.Cycles, long.TimedOut)
	}
	edge := long.Cycles - 2*int64(cfg.AtomicK)
	var outs []*Outcome
	for _, limit := range []int64{edge - 1, edge} {
		want := runLimited(t, cfg, l, &f, limit, true)
		if !want.TimedOut || want.Cycles != limit+1 {
			t.Fatalf("%v under limit %d: cycles %d, timed out %v", &f, limit, want.Cycles, want.TimedOut)
		}
		r := *ref
		r.maxCyc = limit
		for name, got := range map[string]*Outcome{"Reference.Run": r.Run(f, staleOut(&r)), "Run": runLimited(t, cfg, l, &f, limit, false)} {
			if err := sameOutcome(got, want); err != nil {
				t.Errorf("%s %v under limit %d: %v", name, &f, limit, err)
			}
		}
		outs = append(outs, want)
	}
	if outs[0].Out.Equal(outs[1].Out) {
		t.Error("the first write-back cycle wrote nothing visible: the case does not pin the edge")
	}

	// csc.blk 2 → 0 in the last block reruns the layer and re-converges at
	// tile (0, 1); with the limit between the golden length and the
	// projected one, the from-cycle-0 run times out on the way.
	last := ref.snaps[2*ref.groups]
	f = Fault{FF: FFCtrBlk, Bit: 1, Cycle: last.cycle + 3}
	full := ref.Run(f, staleOut(ref))
	if full.TimedOut || full.Cycles <= ref.Golden().Cycles {
		t.Fatalf("%v: cycles %d, timed out %v: expected a longer run that finishes", &f, full.Cycles, full.TimedOut)
	}
	// A run of c cycles passes the watchdog check at cycles below c only.
	for _, limit := range []int64{full.Cycles - 2, full.Cycles - 1} {
		e, err := NewEngine(cfg, l, &f)
		if err != nil {
			t.Fatal(err)
		}
		e.maxCyc, e.detailed = limit, true
		want, _ := e.Run()
		if want.TimedOut != (limit == full.Cycles-2) {
			t.Fatalf("limit %d on a %d-cycle run: timed out %v", limit, full.Cycles, want.TimedOut)
		}
		ref.maxCyc = limit
		if err := sameOutcome(ref.Run(f, staleOut(ref)), want); err != nil {
			t.Errorf("%v under limit %d: %v", &f, limit, err)
		}
	}
}

// The short-circuit is a state equality: config registers, a tile the golden
// run visits, and an accumulator bank of +0 — a partial sum the write-back
// did not drain, or a -0, is live state the golden run never had.
func TestConvergedRequiresGoldenState(t *testing.T) {
	cfg := tinyDesign()
	ref, err := NewReference(cfg, matmulLayer(62, numerics.MustCodec(numerics.FP16, 0), 10, 5, 7))
	if err != nil {
		t.Fatal(err)
	}
	at := func(change func(e *Engine)) *snapshot {
		e := newEngine(ref.cfg, ref.l, ref.sched)
		e.blk, e.grp = 1, 1
		change(e)
		return ref.converged(e)
	}
	if s := at(func(*Engine) {}); s != &ref.snaps[1*ref.groups+1] {
		t.Fatalf("golden state at tile (1, 1) matched %v", s)
	}
	for name, change := range map[string]func(e *Engine){
		"cfg.pos":      func(e *Engine) { e.cfgPos ^= 1 },
		"cfg.ch":       func(e *Engine) { e.cfgCh ^= 8 },
		"cfg.red":      func(e *Engine) { e.cfgRed ^= 2 },
		"blk past end": func(e *Engine) { e.blk = 3 },
		"grp past end": func(e *Engine) { e.grp = 2 },
		"partial sum":  func(e *Engine) { e.acc[len(e.acc)-1] = 0.5 },
		"negative 0":   func(e *Engine) { e.acc[0] = float32(math.Copysign(0, -1)) },
	} {
		if s := at(change); s != nil {
			t.Errorf("%s: matched the snapshot at cycle %d", name, s.cycle)
		}
	}
}

// The lean cycle must leave the registers the per-MAC loop leaves, at every
// datapath format, on a fault-free run.
func TestLeanCycleMatchesDetailed(t *testing.T) {
	for _, prec := range []numerics.Precision{numerics.FP32, numerics.FP16, numerics.INT16, numerics.INT8} {
		codec := numerics.MustCodec(prec, 8)
		conv, _, _ := randConvLayer(55, codec, 7, 6, 3, 21, 3, 2, 1)
		for name, l := range map[string]*Layer{"conv": conv, "matmul": matmulLayer(56, codec, 19, 11, 17)} {
			lean, err := Run(nvdla(), l, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameOutcome(lean, runDetailed(t, nvdla(), l, nil)); err != nil {
				t.Errorf("%v %s: %v", prec, name, err)
			}
		}
	}
}

// sameRegisters compares the live state of two engines bit for bit: got ran
// rows from state before, want the same cycles per MAC. Accumulators of MACs
// with a channel must match; the others must be as rows found them.
func sameRegisters(got, want *Engine, before []float32) error {
	if got.r != want.r || got.dx != want.dx || got.wb != want.wb || got.phase != want.phase ||
		got.cycle != want.cycle || got.blk != want.blk || got.grp != want.grp {
		return fmt.Errorf("r %d dx %d wb %d phase %d cycle %d tile (%d, %d); want %d %d %d %d %d (%d, %d)",
			got.r, got.dx, got.wb, got.phase, got.cycle, got.blk, got.grp,
			want.r, want.dx, want.wb, want.phase, want.cycle, want.blk, want.grp)
	}
	live := int(min(int64(got.sched.numCh)-got.grp*int64(got.k), int64(got.k)))
	acc := slices.Clone(want.acc)
	for i := range acc {
		if i%got.k >= live {
			acc[i] = before[i]
		}
	}
	for _, reg := range []struct {
		name      string
		got, want []float32
	}{{"wload", got.wload, want.wload}, {"wreg", got.wreg, want.wreg}, {"acc", got.acc, acc}} {
		for i := range reg.want {
			if math.Float32bits(reg.got[i]) != math.Float32bits(reg.want[i]) {
				return fmt.Errorf("%s[%d] = %#08x, want %#08x", reg.name, i, math.Float32bits(reg.got[i]), math.Float32bits(reg.want[i]))
			}
		}
	}
	return nil
}

// nonFinite returns fuzzLayers' FP16 layers with zero, infinite and NaN
// operands where the gating matters: on the conv a +Inf weight on row 0 (all
// padding for the top row of positions), a -Inf one on row 6 that position 0
// meets with the input +0 at element 0, a NaN weight on row 7 (padding for
// the right column) and a -Inf input; on the FC layer inputs +0 and -0 meeting
// a +Inf and a NaN weight.
func nonFinite() (conv, fc *Layer) {
	ls := fuzzLayers(numerics.MustCodec(numerics.FP16, 0))
	conv, fc = ls[0], ls[1]
	nan := math.Float32frombits(0x7fc01234)
	inf := float32(math.Inf(1))
	cw, ci := conv.W.Data(), conv.Input.Data() // W (2, 2, 2, 6): row r at r*6
	cw[0*6+0], cw[6*6+1], cw[7*6+5], ci[0], ci[5] = inf, -inf, nan, 0, -inf
	fw, fi := fc.W.Data(), fc.Input.Data() // W (6, 7), input (5, 6)
	fw[0*7+2], fw[1*7+5], fi[0], fi[13] = inf, nan, 0, float32(math.Copysign(0, -1))
	return conv, fc
}

// rows must leave every register where per-MAC stepping through the same
// whole rows leaves it — from any row's load cycle of any tile, over any
// number of rows up to the last, with stop at the rows' end — on a conv whose
// columns have padding runs at their start, middle and end, on an FC layer,
// both also with non-finite and zero operands, and on two Table III shapes,
// where the panel's lanes take the wide group and its Go tail the narrow one.
// With fewer than two rows before stop, or a format that rounds no product,
// it declines.
func TestRowsMatchDetailed(t *testing.T) {
	type layerCase struct {
		cfg *accel.Config
		l   *Layer
		// sparse keeps the first rows 0, 1 and the middle one, each with 2,
		// 3 or all the rows left, instead of every (first row, rows) pair.
		sparse bool
	}
	fp16 := numerics.MustCodec(numerics.FP16, 0)
	tiny := fuzzLayers(fp16)
	convInf, fcInf := nonFinite()
	cases := map[string]layerCase{
		"conv":              {tinyDesign(), tiny[0], false},
		"fc":                {tinyDesign(), tiny[1], false},
		"conv-non-finite":   {tinyDesign(), convInf, false},
		"fc-non-finite":     {tinyDesign(), fcInf, false},
		"inception-conv3x3": {nvdla(), tableIIILayers(fp16)["inception-conv3x3"], true},
		"transformer-fc":    {nvdla(), tableIIILayers(fp16)["transformer-fc"], true},
	}
	for name, lc := range cases {
		ref, err := NewReference(lc.cfg, lc.l)
		if err != nil {
			t.Fatal(err)
		}
		numRed := ref.sched.numRed
		out := tensor.New(ref.Golden().Out.Shape()...)
		// at returns an engine stepped per MAC from tile ti's boundary to the
		// load cycle of row r0.
		at := func(ti, r0 int) *Engine {
			s := &ref.snaps[ti]
			e := ref.engine(out)
			e.cycle, e.blk, e.grp, e.detailed = s.cycle, int64(ti/ref.groups), int64(ti%ref.groups), true
			copy(e.wreg, s.wreg)
			for e.phase != phaseLoad || e.r != int64(r0) {
				e.step()
				e.cycle++
			}
			return e
		}
		for ti := range ref.snaps {
			for r0 := 0; r0 < numRed; r0++ {
				for n := 2; r0+n <= numRed; n++ {
					if lc.sparse && (r0 > 1 && r0 != numRed/2 || n > 3 && r0+n < numRed) {
						continue
					}
					want, got := at(ti, r0), at(ti, r0)
					bs := want.blockSize()
					for c := int64(0); c < int64(n)*(1+bs); c++ {
						want.step()
						want.cycle++
					}
					stop := got.cycle + int64(n)*(1+bs)
					if n == 2 && got.rows(stop-1, bs) {
						t.Fatalf("%s: tile %d, row %d: ran rows with one whole row before stop", name, ti, r0)
					}
					before := slices.Clone(got.acc)
					if !got.rows(stop, bs) {
						t.Fatalf("%s: tile %d: %d rows from row %d declined", name, ti, n, r0)
					}
					if err := sameRegisters(got, want, before); err != nil {
						t.Fatalf("%s: tile %d, %d rows from row %d: %v", name, ti, n, r0, err)
					}
					ref.release(want)
					ref.release(got)
				}
			}
		}
	}
	intRef, err := NewReference(tinyDesign(), fuzzLayers(numerics.MustCodec(numerics.INT8, 4))[0])
	if err != nil {
		t.Fatal(err)
	}
	if e := intRef.engine(staleOut(intRef)); e.rows(e.maxCyc, e.blockSize()) {
		t.Error("rows ran an INT8 layer")
	}
}

// One Reference serves four goroutines at once — each borrowing engines
// from its pool, CDMA faults on private CBUF copies, all reading the shared
// CBUFs — and each gets, byte for byte, what the same runs give one at a time.
func TestReferenceRunConcurrent(t *testing.T) {
	ref, err := NewReference(nvdla(), tableIIILayers(numerics.MustCodec(numerics.FP16, 0))["resnet-conv3x3"])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(65))
	faults := make([]Fault, 160)
	want := make([]Outcome, len(faults))
	for i := range faults {
		faults[i] = Fault{
			FF: allFFs[rng.Intn(len(allFFs))], Mac: rng.Intn(16), Bit: rng.Intn(16),
			Cycle: rng.Int63n(ref.Golden().Cycles+40) - 20,
		}
		want[i] = *ref.Run(faults[i], staleOut(ref))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := staleOut(ref)
			for n := range faults {
				i := (n + g*len(faults)/4) % len(faults)
				if err := sameOutcome(ref.Run(faults[i], out), &want[i]); err != nil {
					t.Errorf("goroutine %d: %v: %v", g, &faults[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The tile skip and the watchdog jump must give what per-MAC stepping gives
// from states no single fault reaches: a corrupted reduction length (0
// included) together with tiles that write nothing, each with a csc.dx flip
// at any later cycle — on a tile's first MAC cycle it multiplies by the
// weights a skipped tile left in the held registers — and under lowered
// limits.
func TestSkipTileMatchesDetailed(t *testing.T) {
	cfg := tinyDesign()
	ref, err := NewReference(cfg, matmulLayer(63, numerics.MustCodec(numerics.FP16, 0), 10, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	start, end := ref.ComputeWindow()
	rows := map[string]func(e *Engine){
		"cfg.red as is": func(*Engine) {},
		"cfg.red 0":     func(e *Engine) { e.cfgRed = 0 },
		"cfg.red 1":     func(e *Engine) { e.cfgRed = 1 },
		"cfg.red up":    func(e *Engine) { e.cfgRed += 3 },
	}
	nothing := map[string]func(e *Engine){
		"cfg.pos up":      func(e *Engine) { e.cfgPos += 8 },
		"cfg.ch up":       func(e *Engine) { e.cfgCh += 8 },
		"grp past groups": func(e *Engine) { e.grp = 2 },
		"blk past blocks": func(e *Engine) { e.blk = 3 },
	}
	for rn, setRows := range rows {
		for nn, setNothing := range nothing {
			check := func(f *Fault, limit int64) {
				var o [2]Outcome
				for i := range o {
					e := ref.engine(tensor.New(ref.Golden().Out.Shape()...))
					setRows(e)
					setNothing(e)
					if f != nil {
						e.arm(*f)
					}
					e.maxCyc, e.detailed = limit, i == 1
					o[i] = e.simulate(nil)
					ref.release(e)
				}
				if err := sameOutcome(&o[0], &o[1]); err != nil {
					t.Fatalf("%s, %s, limit %d, fault %v: %v", rn, nn, limit, f, err)
				}
			}
			for _, limit := range []int64{start + 37, start + 61, end + 40, ref.maxCyc} {
				check(nil, limit)
			}
			for cycle := start; cycle < 3*end; cycle++ {
				check(&Fault{FF: FFCtrDx, Cycle: cycle}, ref.maxCyc)
			}
		}
	}
}

// GoldenCycles — what Validate samples fault cycles from and the watchdog is
// derived from — is the simulated golden run's length, exactly.
func TestGoldenCyclesExact(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	layers := tableIIILayers(codec)
	layers["conv-pad-stride"], _, _ = randConvLayer(57, codec, 7, 6, 3, 21, 3, 2, 1)
	layers["conv-ragged-block"], _, _ = randConvLayer(58, codec, 5, 5, 2, 4, 3, 1, 0) // 9 positions
	layers["matmul-ragged"] = matmulLayer(59, codec, 19, 11, 17)
	for _, cfg := range []*accel.Config{nvdla(), tinyDesign()} {
		for name, l := range layers {
			gc, err := GoldenCycles(cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReference(cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.Golden().Cycles; got != gc {
				t.Errorf("%s on k=%d t=%d: golden run took %d cycles, GoldenCycles says %d",
					name, cfg.AtomicK, cfg.WeightHoldCycles, got, gc)
			}
			// Every snapshot sits where the schedule arithmetic puts its tile.
			for i, s := range ref.snaps {
				si := ref.Locate(s.cycle)
				if si.Phase != PhaseLoad || si.R != 0 || si.Blk*ref.groups+si.Grp != i {
					t.Fatalf("%s: snapshot %d at cycle %d locates to %+v", name, i, s.cycle, si)
				}
			}
			if si := ref.Locate(gc - 1); si.Phase != PhaseWB {
				t.Errorf("%s: last cycle locates to %+v", name, si)
			}
			if si := ref.Locate(gc); si.Phase != PhaseIdle {
				t.Errorf("%s: cycle past the end locates to %+v", name, si)
			}
		}
	}
}

// Neither entry point writes through the caller's fault.
func TestRunLeavesFaultAlone(t *testing.T) {
	cfg := nvdla()
	l := matmulLayer(60, numerics.MustCodec(numerics.FP16, 0), 6, 5, 7)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := ref.ComputeWindow()
	f := Fault{FF: FFWReg, Mac: -3, Bit: 14, ExtraBits: []int{2}, Cycle: start + 2}
	if _, err := Run(cfg, l, &f); err != nil {
		t.Fatal(err)
	}
	ref.Run(f, staleOut(ref))
	if f.Mac != -3 || len(f.ExtraBits) != 1 || f.ExtraBits[0] != 2 {
		t.Errorf("fault changed to %+v", f)
	}
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// quarter of what it is handed.
var raceEnabled bool

// An injection allocates nothing — a re-converging one, one that runs to the
// end, a CDMA one on its private CBUF, one that never fires: the engine is
// the pool's and the outcome the caller's.
func TestReferenceRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops engines")
	}
	cfg := nvdla()
	l := tableIIILayers(numerics.MustCodec(numerics.FP16, 0))["inception-conv3x3"]
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	out := staleOut(ref)
	wreg := Fault{FF: FFWReg, Mac: 3, Bit: 14, ExtraBits: []int{3}, Cycle: ref.snaps[2].cycle + 40}
	if o := ref.Run(wreg, out); !o.FaultApplied || o.Cycles != ref.Golden().Cycles {
		t.Fatalf("%v: not a re-converging injection: %+v", &wreg, o)
	}
	for name, f := range map[string]Fault{
		"re-converging": wreg,
		"cfg.ch":        {FF: FFCfgCh, Bit: 1, Cycle: ref.snaps[1].cycle + 3},
		"cdma":          {FF: FFCDMAWt1, Bit: 12, Cycle: 40},
		"never fires":   {FF: FFOutReg, Bit: 2, Cycle: ref.snaps[1].cycle + 3},
	} {
		if n := testing.AllocsPerRun(50, func() { ref.Run(f, out) }); n != 0 {
			t.Errorf("%s: Reference.Run allocates %v times, want 0", name, n)
		}
	}
}

// fuzzLayers are FuzzReferenceRun's layers on tinyDesign in codec's format:
// a conv with padding, stride 2, a ragged last block and channel group (9
// positions, 6 channels, 8 reduction rows), and an FC layer without padding
// (5 rows, 6 inputs, 7 channels) whose input element 8 is exactly 1, so that
// flipping its bit 14 in FP16 makes it +Inf.
func fuzzLayers(codec numerics.Codec) []*Layer {
	conv, _, _ := randConvLayer(61, codec, 5, 4, 2, 6, 2, 2, 1)
	fc, _, _ := fcLayer(64, 5, 6, 7)
	fc.Codec = codec
	fc.Input.Data()[8] = 1
	return []*Layer{conv, fc}
}

// fuzzPrecisions are the datapath formats FuzzReferenceRun's prec selects:
// FP16 takes the rows rectangle, the integer formats the MulPre row loop.
var fuzzPrecisions = []numerics.Precision{numerics.FP16, numerics.INT16, numerics.INT8}

// FuzzReferenceRun holds Reference.Run and the from-cycle-0 Run to the
// from-cycle-0 per-MAC simulation on any (FF, MAC, bit, cycle) of either
// fuzzLayers layer in any fuzzPrecisions format, under a watchdog limit of
// golden − 1 + extra cycles (the design's when extra is 0 or that is past
// it): a Reference serves no limit its golden run breaks.
func FuzzReferenceRun(f *testing.F) {
	cfg := tinyDesign()
	var refs [][]*Reference // [layer][precision]
	for pi, p := range fuzzPrecisions {
		for li, l := range fuzzLayers(numerics.MustCodec(p, 4)) {
			ref, err := NewReference(cfg, l)
			if err != nil {
				f.Fatal(err)
			}
			if pi == 0 {
				refs = append(refs, nil)
			}
			refs[li] = append(refs[li], ref)
		}
	}
	// One seed per FF, layer and format here; the hazards by name are in
	// testdata/fuzz.
	for li := range refs {
		for pi, ref := range refs[li] {
			for i := range allFFs {
				f.Add(uint8(i), 1, 14, ref.snaps[1].cycle+int64(3*i), uint16(0), uint8(li), uint8(pi))
			}
		}
	}
	f.Fuzz(func(t *testing.T, ff uint8, mac, bit int, cycle int64, extra uint16, layer, prec uint8) {
		ref := refs[int(layer)%len(refs)][int(prec)%len(fuzzPrecisions)]
		fault := Fault{FF: allFFs[int(ff)%len(allFFs)], Mac: mac, Bit: bit, Cycle: cycle}
		r := *ref
		if extra > 0 {
			r.maxCyc = min(ref.Golden().Cycles-1+int64(extra), ref.maxCyc)
		}
		want := runLimited(t, cfg, ref.l, &fault, r.maxCyc, true)
		if err := sameOutcome(r.Run(fault, staleOut(ref)), want); err != nil {
			t.Fatalf("Reference.Run %v under limit %d: %v", &fault, r.maxCyc, err)
		}
		if err := sameOutcome(runLimited(t, cfg, ref.l, &fault, r.maxCyc, false), want); err != nil {
			t.Fatalf("Run %v under limit %d: %v", &fault, r.maxCyc, err)
		}
	})
}
