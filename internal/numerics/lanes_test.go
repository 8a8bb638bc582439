package numerics

// The lane contract (DESIGN.md §7.1), enforced from one table: every
// dispatcher with an AVX2 body is a row of primitives. TestLaneContract holds
// each row, lanes off and on, on random operands of every length 0–70 at every
// offset 0–7 and with its specials planted in every lane of the first, a
// middle and the last chunk and in the tail, to (a) lanes ≡ Go loop bit for
// bit, (b) Go loop ≡ definition, (c) in place ≡ out of place and (d) a body
// that bails finishing an in-band input, so that a closed band cannot pass as
// the Go loop. The sweep tests hold the rows' exhaustive inputs to (a) and
// (b), the fuzz targets what rows decode to (a)–(c); TestLaneRegistryComplete
// (asm_test.go) keeps the table complete.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// operands is one call's arguments, in roles the primitives share.
type operands struct {
	acc    []float32 // the accumulators; MaxRow's running maxima
	x, w   []float32 // activations and weights; the row to round, rectify or exponentiate; a diff scan's rows
	s      float32   // HalfMulAddRow's activation, HalfDot's accumulator, ExpRow's shift
	stride int
	thr    []uint32 // HalfMulAddPanel's thresholds: nil, or its weights' (withThresholds)
	q      Quantizer
	lo, hi float32 // ClipRow's bounds; lo is Quantizer.roundInto's floor
}

// A call appends its results to dst as float32 words: a row, HalfDot's sum,
// a diff scan's index (exact below 2²⁴), ExpRow's float64s two words each.
type call func(dst []float32, o *operands, inPlace bool) []float32

// primitive is a row of the table.
type primitive struct {
	name, body string // the dispatcher and the assembly routine it dispatches to
	run, def   call   // through the dispatcher; the scalar definition
	// nanEq compares the Go loop with the definition as NaN = NaN: where two
	// NaNs meet, the sign and payload kept are the compiler's choice in each
	// loop. The lanes always equal the Go loop bit for bit.
	nanEq, inPlace bool // inPlace: the row may write over its input (c)
	gen            func(rng *rand.Rand, n, off int) operands
	specials       []float32
	plant          func(o *operands, i int, v float32)
	whole          func(n int) int // the body alone on n in-band elements, whole chunks: how many it finished (d)
	sweeps         []sweep
	fuzz           string // the fuzz target whose bytes decode turns into this row's operands
	decode         func(data []byte) operands
	seeds          [][]byte
	bench          []benchCase

	got, loop, want, in []float32 // scratch
}

// sweep is a set of exhaustive inputs, run by the test named test.
type sweep struct {
	test string
	each func(yield func(operands))
}

type benchCase struct {
	name, unit string                          // unit: "MAC/s" or "ns/value"
	setup      func() (f func(i int), per int) // f(i) is iteration i; per is its MACs or values
}

var (
	inf     = float32(math.Inf(1))
	nan     = float32(math.NaN())
	negZero = float32(math.Copysign(0, -1))
)

// halfSpecials are products the FP16 lanes treat apart if anything does:
// HalfMax, the first value past it, ±Inf, NaN, ±0, 2⁻²⁴, the ±1.5·2⁻²⁵ IEEE
// rounds up and the model flushes, the 1.5·2⁻²⁴ tie, a float32 subnormal.
var halfSpecials = []float32{65504, 65520, inf, -inf, nan, 0, negZero, 5.9604645e-08, 4.4703484e-08, -4.4703484e-08,
	8.940697e-08, 1e-40}

// floatRowSpecials separate a lane from the scalar instruction if anything
// does: both zeros, the subnormal ends, both infinities, quiet and signalling
// NaNs of four payloads and both signs, and the largest finite values.
var floatRowSpecials = []float32{
	0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
	inf, -inf, math.MaxFloat32, -math.MaxFloat32,
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00001),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xffbfffff),
}

// diffSpecials: ±0 and two NaNs (each equal as an element to other bits),
// ±Inf and two ordinary values.
var diffSpecials = []float32{0, negZero, math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc), inf, -inf, 1.5, -2}

// expEdges are where math.Exp changes what it does (the band's edges, the
// last normal and nonzero results, overflow); expSpecials no sweep is sure to
// meet.
var (
	expEdges    = []float32{700, -700, -708.4, -745, 709.78}
	expSpecials = []float32{0, negZero, nan, inf, -inf, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), math.MaxFloat32, -math.MaxFloat32}
)

// primitives is the table: one row per dispatcher with an AVX2 body.
var primitives = []*primitive{
	{
		name: "HalfMulAddRow", body: "halfMulAddRowAVX2", nanEq: true,
		run: onAcc(func(acc []float32, o *operands) { HalfMulAddRow(acc, o.s, o.w) }),
		def: onAcc(func(acc []float32, o *operands) {
			for i, w := range o.w {
				acc[i] += RoundHalfRef(o.s * w)
			}
		}),
		gen: halfOperands, specials: halfSpecials, plant: plantProduct,
		whole:  func(n int) int { return halfMulAddRowAVX2(make([]float32, n), 1, filled(n, 0.5)) },
		sweeps: []sweep{{"TestHalfRowMatchesRef", halvesTimesMultipliers}, {"TestHalfRoundBandEdges", bandEdgeProducts}},
		fuzz:   "FuzzHalfRow", decode: decodeHalfRow, seeds: halfRowSeeds(),
		bench: halfRowBench(func(acc, a, w []float32) { HalfMulAddRow(acc, a[0], w) }),
	},
	{
		name: "HalfMulAddVec", body: "halfMulAddVecAVX2", nanEq: true,
		run: onAcc(func(acc []float32, o *operands) { HalfMulAddVec(acc, o.x, o.w) }),
		def: onAcc(func(acc []float32, o *operands) {
			for i, w := range o.w {
				acc[i] += RoundHalfRef(o.x[i] * w)
			}
		}),
		gen: halfOperands, specials: halfSpecials, plant: plantProduct,
		whole:  func(n int) int { return halfMulAddVecAVX2(make([]float32, n), filled(n, 1), filled(n, 0.5)) },
		sweeps: []sweep{{"TestHalfRowMatchesRef", halvesTimesMultipliers}, {"TestHalfRoundBandEdges", bandEdgeProducts}},
		fuzz:   "FuzzHalfRow", decode: decodeHalfRow,
		bench: halfRowBench(func(acc, a, w []float32) { HalfMulAddVec(acc, a, w) }),
	},
	{
		name: "HalfDot", body: "halfDotAVX2", nanEq: true,
		run: one(func(o *operands) float32 { return HalfDot(o.s, o.x, o.w) }),
		def: one(func(o *operands) float32 {
			sum := o.s
			for i, w := range o.w {
				sum += RoundHalfRef(o.x[i] * w)
			}
			return sum
		}),
		gen: halfOperands, specials: halfSpecials, plant: plantProduct,
		whole: func(n int) int {
			_, done := halfDotAVX2(0, filled(n, 1), filled(n, 0.5))
			return done
		},
		sweeps: []sweep{{"TestHalfRowMatchesRef", halvesTimesMultipliersDot}},
		fuzz:   "FuzzHalfRow",
		decode: func(data []byte) operands {
			o := decodeHalfRow(data)
			o.s = 0.25
			return o
		},
		bench: halfRowBench(func(acc, a, w []float32) { acc[0] = HalfDot(0, a, w) }),
	},
	{
		name: "halfRoundInto", body: "halfRoundAVX2", inPlace: true,
		run: onX(func(dst, src []float32, _ *operands) { halfRoundInto(dst, src) }),
		def: onX(func(dst, src []float32, _ *operands) {
			for i, v := range src {
				dst[i] = RoundHalfRef(v)
			}
		}),
		gen: func(rng *rand.Rand, n, off int) operands {
			x := at(n, off)
			for i := range x { // every band, from under the underflow edge to past HalfMax
				x[i] = float32(rng.NormFloat64() * math.Ldexp(1, 16-rng.Intn(44)))
			}
			return operands{x: x}
		},
		specials: halfSpecials, plant: plantX,
		whole: func(n int) int { return halfRoundAVX2(make([]float32, n), filled(n, 0.5)) },
		sweeps: []sweep{
			{"TestHalfRoundBandEdges", func(yield func(operands)) { yield(operands{x: bandEdgePatterns()}) }},
			{"TestRoundLanesSmallBands", smallBandPatterns},
		},
		fuzz: "FuzzHalfRow", decode: func(data []byte) operands { return operands{x: decodeHalfRow(data).w} },
		bench: []benchCase{{"n4096", "ns/value", func() (func(int), int) {
			src, _ := benchOperands(4096)
			dst := make([]float32, len(src))
			return func(int) { halfRoundInto(dst, src) }, len(src)
		}}, saturateBench(FP16, 0)},
	},
	{
		name: "HalfMulAddPanel", body: "halfMulAddPanelAVX2", nanEq: true,
		run: onAcc(func(acc []float32, o *operands) { HalfMulAddPanel(acc, o.x, o.w, o.stride, o.thr) }),
		def: onAcc(func(acc []float32, o *operands) {
			for i, a := range o.x {
				for c := range acc {
					if a != 0 || o.thr == nil {
						acc[c] += RoundHalfRef(a * o.w[i*o.stride+c])
					}
				}
			}
		}),
		gen: halfPanelOperands, specials: halfSpecials,
		plant: func(o *operands, i int, v float32) {
			r := i % len(o.x)
			o.x[r], o.w[r*o.stride+i] = 1, v
			withThresholds(o, o.thr != nil)
		},
		whole: func(n int) int { // a column block a call, as the dispatcher calls it; without thresholds and with
			w := filled(3*n, 0.5)
			for _, thr := range [][]uint32{nil, HalfPanelThresholds(w, n)} {
				done, acc := 0, make([]float32, n)
				for done < n {
					k, ok := halfMulAddPanelAVX2(acc[done:], filled(3, 1), w[done:], n, thr)
					if !ok {
						return done
					}
					done += k
				}
			}
			return n
		},
		sweeps: []sweep{{"TestPanelMatchesRows", halfPanels}},
		fuzz:   "FuzzHalfPanel", decode: decodeHalfPanel, seeds: halfPanelSeeds(),
		bench: halfPanelBench(),
	},
	{
		name: "MulAddPanel", body: "mulAddPanelAVX2", nanEq: true,
		run: onAcc(func(acc []float32, o *operands) { MulAddPanel(acc, o.x, o.w, o.stride) }),
		def: onAcc(func(acc []float32, o *operands) {
			for i, a := range o.x {
				for c := range acc {
					acc[c] += a * o.w[i*o.stride+c]
				}
			}
		}),
		gen: func(rng *rand.Rand, n, off int) operands {
			return floatPanel(rng, n, off, 1+rng.Intn(30), []float64{0, 0.15}[rng.Intn(2)])
		},
		specials: floatRowSpecials,
		plant:    func(o *operands, i int, v float32) { o.acc[i], o.w[i%len(o.x)*o.stride+i] = v, v },
		sweeps:   []sweep{{"TestMulAddPanelMatchesGo", floatPanels}},
		fuzz:     "FuzzMulAddPanel", decode: decodeFloatPanel, seeds: floatPanelSeeds(),
		bench: floatPanelBench(),
	},
	{
		name: "Quantizer.roundInto", body: "quantRoundAVX2", inPlace: true,
		run: onX(func(dst, src []float32, o *operands) { o.q.roundInto(dst, src, o.lo) }),
		// roundIntoGo's switch, its default case from the definition.
		def: onX(func(dst, src []float32, o *operands) {
			q := o.q
			for i, v := range src {
				switch {
				case v >= q.satHi:
					dst[i] = q.Dequantize(q.saturated(1))
				case v <= q.satLo && v < o.lo:
					dst[i] = o.lo
				case v <= q.satLo:
					dst[i] = q.Dequantize(q.saturated(-1))
				case v != v:
					dst[i] = 0
				default:
					dst[i] = q.Dequantize(q.quantizeRef(v))
				}
			}
		}),
		gen: func(rng *rand.Rand, n, off int) operands {
			o := operands{q: quantCases[rng.Intn(len(quantCases))], lo: -inf, x: drawSpecial(rng, n, off, 200, 0.1)}
			if o.q.Bits != 0 && rng.Intn(2) == 0 {
				o.lo = -o.q.MaxAbs() - o.q.Scale
			}
			for i, v := range o.x {
				o.x[i] = v * o.q.Scale
			}
			return o
		},
		specials: floatRowSpecials, plant: plantX,
		sweeps: []sweep{{"TestQuantLanesMatchGo", quantTies}},
		bench:  append(quantBench(), saturateBench(INT8, 8)),
	},
	{
		name: "MaxRow", body: "maxRowAVX2",
		run: onAcc(func(acc []float32, o *operands) { MaxRow(acc, o.x) }),
		def: onAcc(func(acc []float32, o *operands) {
			for i, v := range o.x {
				if v > acc[i] {
					acc[i] = v
				}
			}
		}),
		gen: func(rng *rand.Rand, n, off int) operands {
			return operands{acc: drawSpecial(rng, n, off, 2, 0.05), x: drawSpecial(rng, n, (off+3)%8, 2, 0.05)}
		},
		specials: floatRowSpecials, plant: func(o *operands, i int, v float32) { o.x[i], o.acc[i] = v, -v },
		sweeps: []sweep{{"TestMaxRowMatchesScalar", maxPairs}},
	},
	{
		name: "ReLURow", body: "reluRowAVX2", inPlace: true,
		run: onX(func(dst, src []float32, _ *operands) { ReLURow(dst, src) }),
		def: onX(func(dst, src []float32, _ *operands) {
			for i, v := range src {
				dst[i] = 0
				if v > 0 {
					dst[i] = v
				}
			}
		}),
		gen:      func(rng *rand.Rand, n, off int) operands { return operands{x: drawSpecial(rng, n, off, 4, 0.1)} },
		specials: floatRowSpecials, plant: plantX,
		sweeps: []sweep{{"TestRectifierRowsMatchScalar", func(yield func(operands)) {
			rectifierRows(nil, func(x []float32) { yield(operands{x: x}) })
		}}},
	},
	{
		name: "ClipRow", body: "clipRowAVX2", inPlace: true,
		run: onX(func(dst, src []float32, o *operands) { ClipRow(dst, src, o.lo, o.hi) }),
		// Not the Go loop's compares: these pass NaN and -0 through for their
		// own reasons, so that rows and definition cannot drift together.
		def: onX(func(dst, src []float32, o *operands) {
			for i, v := range src {
				switch {
				case v < o.lo:
					v = o.lo
				case v > o.hi:
					v = o.hi
				}
				dst[i] = v
			}
		}),
		gen: func(rng *rand.Rand, n, off int) operands {
			b := clipBounds[rng.Intn(len(clipBounds))]
			return operands{x: drawSpecial(rng, n, off, 4, 0.1), lo: b[0], hi: b[1]}
		},
		specials: floatRowSpecials, plant: plantX,
		sweeps: []sweep{{"TestRectifierRowsMatchScalar", func(yield func(operands)) {
			for _, b := range clipBounds {
				rectifierRows(b[:], func(x []float32) { yield(operands{x: x, lo: b[0], hi: b[1]}) })
			}
		}}},
	},
	diffScan("FirstDiff", "firstDiffAVX2", FirstDiff, func(first, _ int) int { return first },
		func(n int) int { return firstDiffAVX2(filled(n, 1), filled(n, 1)) }, diffSeeds()),
	diffScan("LastDiff", "lastDiffAVX2", LastDiff, func(_, last int) int { return last },
		func(n int) int { return n - lastDiffAVX2(filled(n, 1), filled(n, 1)) }, nil),
	{
		name: "ExpRow", body: "expRowAVX2",
		run: onExp(func(d []float64, o *operands) { ExpRow(d, o.x, o.s) }),
		def: onExp(func(d []float64, o *operands) {
			for i, v := range o.x {
				d[i] = math.Exp(float64(v - o.s))
			}
		}),
		gen: func(rng *rand.Rand, n, off int) operands {
			x := drawSpecial(rng, n, off, 30, 0)
			return operands{x: x, s: []float32{-650, rowMax(x)}[rng.Intn(2)]} // -650 takes most of x to the band's edge
		},
		specials: append(append([]float32(nil), expEdges...), expSpecials...), plant: plantX,
		whole:  func(n int) int { return expRowAVX2(make([]float64, n), filled(n, -1), 0) },
		sweeps: []sweep{{"TestExpRowMatchesExp", expRows}},
		fuzz:   "FuzzExpRow", decode: decodeExp, seeds: expSeeds(),
		bench: []benchCase{{"softmax64", "ns/value", func() (func(int), int) {
			x, dst := normals(82, 64, 3), make([]float64, 64) // 64 logits, shifted by their maximum as SoftmaxRows does
			shift := rowMax(x)
			return func(int) { ExpRow(dst, x, shift) }, len(x)
		}}},
	},
}

// diffScan is the row of a diff scan, whose definition is end of naiveDiffs.
func diffScan(name, body string, scan func(a, b []float32) int, end func(first, last int) int, whole func(n int) int, seeds [][]byte) *primitive {
	return &primitive{name: name, body: body,
		run: one(func(o *operands) float32 { return float32(scan(o.x, o.w)) }),
		def: one(func(o *operands) float32 { return float32(end(naiveDiffs(o.x, o.w))) }),
		gen: diffOperands, specials: diffSpecials, plant: plantDiff, whole: whole,
		sweeps: []sweep{{"TestDiffScansMatchNaive", diffRows}}, fuzz: "FuzzDiffRow", decode: decodeDiff, seeds: seeds}
}

// onAcc runs f on a copy of the accumulators.
func onAcc(f func(acc []float32, o *operands)) call {
	return func(dst []float32, o *operands, _ bool) []float32 {
		dst = append(dst[:0], o.acc...)
		f(dst, o)
		return dst
	}
}

// onX is a call that runs f from x into dst, which f must fill, or, in
// place, over a copy of x.
func onX(f func(dst, src []float32, o *operands)) call {
	return func(dst []float32, o *operands, inPlace bool) []float32 {
		src := o.x
		switch {
		case inPlace:
			dst = append(dst[:0], src...)
			src = dst
		case cap(dst) < len(src):
			dst = make([]float32, len(src))
		default:
			dst = dst[:len(src)]
		}
		f(dst, src, o)
		return dst
	}
}

// one is a call with one result.
func one(f func(o *operands) float32) call {
	return func(dst []float32, o *operands, _ bool) []float32 { return append(dst[:0], f(o)) }
}

// onExp is a call that runs f into a float64 row as long as x, two words an
// element.
func onExp(f func(d []float64, o *operands)) call {
	var d []float64 // scratch
	return func(dst []float32, o *operands, _ bool) []float32 {
		if cap(d) < len(o.x) {
			d = make([]float64, len(o.x))
		}
		d = d[:len(o.x)]
		f(d, o)
		dst = dst[:0]
		for _, v := range d {
			b := math.Float64bits(v)
			dst = append(dst, math.Float32frombits(uint32(b>>32)), math.Float32frombits(uint32(b)))
		}
		return dst
	}
}

// check holds one call of p on o to the contract: with the lanes off, the Go
// loop to the definition (b); with them on, the lanes to the Go loop bit for
// bit (a), and the Go loop to the definition too when this is the only pass
// (alone) — under eachDispatch the "go" leg did that on the same operands;
// with inPlace, the call in place to the call out of place (c).
func (p *primitive) check(t testing.TB, where string, o *operands, inPlace, alone bool) {
	p.got = p.run(p.got, o, false)
	loop := p.got
	if hasAVX2 {
		hasAVX2 = false
		p.loop = p.run(p.loop, o, false)
		hasAVX2 = true
		loop = p.loop
		p.compare(t, where, o, "lanes", p.got, "Go loop", loop, false)
	}
	if !hasAVX2 || alone {
		p.want = p.def(p.want, o, false)
		p.compare(t, where, o, "Go loop", loop, "definition", p.want, p.nanEq)
	}
	if inPlace && p.inPlace {
		p.in = p.run(p.in, o, true)
		p.compare(t, where, o, "call in place", p.in, "call out of place", p.got, false)
	}
}

func (p *primitive) compare(t testing.TB, where string, o *operands, by string, got []float32, against string, want []float32, nanEq bool) {
	for i, w := range want {
		if g := got[i]; math.Float32bits(g) != math.Float32bits(w) && !(nanEq && g != g && w != w) {
			el := func(s []float32) string {
				if i < len(s) {
					return fmt.Sprintf("[%d] %#08x of %d", i, math.Float32bits(s[i]), len(s))
				}
				return fmt.Sprintf("%d long", len(s))
			}
			t.Fatalf("%s (lanes %v), %s: result %d is %#08x by the %s, %#08x by the %s\n"+
				"operands: acc %s, x %s, w %s, s %#08x, stride %d, thresholds %v, q %+v, lo %v, hi %v",
				p.name, hasAVX2, where, i, math.Float32bits(g), by, math.Float32bits(w), against,
				el(o.acc), el(o.x), el(o.w), math.Float32bits(o.s), o.stride, o.thr, o.q, o.lo, o.hi)
		}
	}
}

func TestLaneContract(t *testing.T) {
	for _, p := range primitives {
		t.Run(p.name, func(t *testing.T) {
			eachDispatch(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(73))
				for n := 0; n <= 70; n++ {
					for off := 0; off < 8; off++ {
						o := p.gen(rng, n, off)
						p.check(t, fmt.Sprintf("random, n %d, offset %d", n, off), &o, true, false)
					}
				}
				const n = 5*laneChunk + 3
				for k, v := range p.specials {
					for i := 0; i < n; i++ {
						if i/laneChunk%2 == 1 && i < 5*laneChunk { // every lane of chunks 0, 2 and 4, and the tail
							continue
						}
						o := p.gen(rng, n, 1)
						p.plant(&o, i, v)
						p.check(t, fmt.Sprintf("%v at %d", v, i), &o, true, false)
					}
					// Planted chunks in a row, and in the tail.
					o := p.gen(rng, n, 1)
					p.plant(&o, 3, v)
					p.plant(&o, 12, p.specials[(k+1)%len(p.specials)])
					p.plant(&o, n-1, p.specials[(k+2)%len(p.specials)])
					p.check(t, fmt.Sprintf("%v in chunks 0 and 1 and the tail", v), &o, true, false)
				}
				for n := laneChunk; hasAVX2 && p.whole != nil && n <= 5*laneChunk; n += laneChunk {
					if done := p.whole(n); done != n {
						t.Fatalf("%s finished %d of %d in-band elements", p.body, done, n)
					}
				}
			})
		})
	}
}

// runSweeps runs the sweeps the table files under t's name, lanes off and on.
func runSweeps(t *testing.T) { eachDispatch(t, sweepsOf(t.Name(), false)) }

// runSweepsOnce runs them as detected only, for sweeps too long to run twice.
func runSweepsOnce(t *testing.T) { sweepsOf(t.Name(), true)(t) }

func sweepsOf(name string, alone bool) func(t *testing.T) {
	return func(t *testing.T) {
		for _, p := range primitives {
			for _, s := range p.sweeps {
				if s.test == name {
					s.each(func(o operands) { p.check(t, name, &o, false, alone) })
				}
			}
		}
	}
}

// The tests the sweeps are filed under; each sweep says what it holds.

func TestHalfRowMatchesRef(t *testing.T)    { runSweeps(t) }
func TestHalfRoundBandEdges(t *testing.T)   { runSweeps(t) }
func TestRoundLanesSmallBands(t *testing.T) { runSweepsOnce(t) }
func TestPanelMatchesRows(t *testing.T)     { runSweeps(t) }
func TestMulAddPanelMatchesGo(t *testing.T) { runSweeps(t) }
func TestQuantLanesMatchGo(t *testing.T)    { runSweeps(t) }
func TestMaxRowMatchesScalar(t *testing.T)  { runSweeps(t) }
func TestDiffScansMatchNaive(t *testing.T)  { runSweeps(t) }
func TestExpRowMatchesExp(t *testing.T)     { runSweeps(t) }

// TestRectifierRowsMatchScalar runs the rectifier sweeps and pins what the
// rows make of NaN and -0: ReLU sends both to +0, a clip passes both
// through, payload and sign untouched.
func TestRectifierRowsMatchScalar(t *testing.T) {
	runSweeps(t)
	x := make([]float32, laneChunk+2) // a chunk and a tail
	for i := range x {
		x[i] = []float32{math.Float32frombits(0xffd00001), negZero}[i%2]
	}
	r, c := make([]float32, len(x)), make([]float32, len(x))
	ReLURow(r, x)
	ClipRow(c, x, 0, 6)
	for i, v := range x {
		if !sameBits(r[i], 0) || !sameBits(c[i], v) {
			t.Fatalf("%#08x: ReLU %#08x, want +0; clip %#08x, want it unchanged", math.Float32bits(v), math.Float32bits(r[i]), math.Float32bits(c[i]))
		}
	}
}

// fuzzRows holds what the rows of f's name decode from its bytes to (a)–(c),
// from every seed of those rows.
func fuzzRows(f *testing.F) {
	var rows []*primitive
	for _, p := range primitives {
		if p.fuzz == f.Name() {
			rows = append(rows, p)
			for _, s := range p.seeds {
				f.Add(s)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range rows {
			o := p.decode(data)
			p.check(t, "fuzz", &o, true, true)
		}
	})
}

func FuzzHalfRow(f *testing.F)     { fuzzRows(f) }
func FuzzHalfPanel(f *testing.F)   { fuzzRows(f) }
func FuzzMulAddPanel(f *testing.F) { fuzzRows(f) }
func FuzzDiffRow(f *testing.F)     { fuzzRows(f) }
func FuzzExpRow(f *testing.F)      { fuzzRows(f) }

// BenchmarkLanes times every case of every row, lanes off and on:
// BenchmarkLanes/<row>/<case>/{go,avx2}.
func BenchmarkLanes(b *testing.B) {
	for _, p := range primitives {
		for _, c := range p.bench {
			b.Run(p.name+"/"+c.name, func(b *testing.B) {
				f, per := c.setup()
				eachDispatch(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f(i)
					}
					if c.unit == "MAC/s" {
						b.ReportMetric(float64(b.N)*float64(per)/b.Elapsed().Seconds(), c.unit)
					} else {
						b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(per)), c.unit)
					}
				})
			})
		}
	}
}

// eachDispatch runs f as sub-test or sub-benchmark "go", with the lanes off
// (the Go loops alone, what every other machine runs), and, where this
// machine has them, as "avx2", with them on.
func eachDispatch[T interface{ Run(string, func(T)) bool }](t T, f func(T)) {
	detected := hasAVX2
	defer func() { hasAVX2 = detected }()
	hasAVX2 = false
	t.Run("go", f)
	if detected {
		hasAVX2 = true
		t.Run("avx2", f)
	}
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// at returns n zeros that start off elements into their backing array, so
// that the lanes' loads meet every alignment.
func at(n, off int) []float32 { return make([]float32, off+n)[off:] }

func filled(n int, v float32) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// halves returns n halves ~ N(0, sd²) that start off elements in.
func halves(rng *rand.Rand, n, off int, sd float64) []float32 {
	s := at(n, off)
	for i := range s {
		s[i] = RoundHalf(float32(rng.NormFloat64() * sd))
	}
	return s
}

// halvesZeros returns n halves ~ N(0, 1), every zeros-th a ±0.
func halvesZeros(rng *rand.Rand, n, zeros int) []float32 {
	s := halves(rng, n, 0, 1)
	for i := 0; zeros > 0 && i < n; i += zeros {
		s[i] = []float32{0, negZero}[rng.Intn(2)]
	}
	return s
}

// drawSpecial returns n values ~ N(0, sd²) that start off elements in, each
// one of floatRowSpecials with probability p.
func drawSpecial(rng *rand.Rand, n, off int, sd, p float64) []float32 {
	s := at(n, off)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * sd)
		if rng.Float64() < p {
			s[i] = floatRowSpecials[rng.Intn(len(floatRowSpecials))]
		}
	}
	return s
}

func plantX(o *operands, i int, v float32) { o.x[i] = v }

// eachRow cuts n elements into rows of every length 0–25 in turn — no chunk,
// whole chunks, tails — and calls f with each row's bounds.
func eachRow(n int, f func(lo, hi int)) {
	for lo, k := 0, 0; lo < n; lo, k = lo+k, (k+1)%26 {
		f(lo, min(lo+k, n))
	}
}

// split cuts data into a head of k bytes, zero-padded, and the rest.
func split(data []byte, k int) (head, rest []byte) {
	head = make([]byte, k)
	copy(head, data)
	return head, data[min(k, len(data)):]
}

func words(data []byte) []float32 {
	s := make([]float32, len(data)/4)
	for i := range s {
		s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return s
}

func pack(vals ...float32) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// The rows' inputs.

// halfOperands: halves ~ N(0, 1) as accumulators and activations, weights
// ~ N(0, 0.01²), so that a good share of the products are half subnormals.
func halfOperands(rng *rand.Rand, n, off int) operands {
	return operands{acc: halves(rng, n, off, 1), s: float32(rng.NormFloat64()), x: halves(rng, n, (off+3)%8, 1),
		w: halves(rng, n, (off+5)%8, 0.01)}
}

// plantProduct makes v the product at i, as v times an activation of 1.
func plantProduct(o *operands, i int, v float32) { o.s, o.x[i], o.w[i] = 1, 1, v }

// halfRowMultipliers: ordinary values, powers of two that slide every half
// into every band, the smallest and largest halves, values that are not
// halves, the special operands; both signs.
func halfRowMultipliers() []float32 {
	ms := []float32{
		0, 1, 0.5, 2, 3, 0.1, 0.3333, 1.0009766, 0.99951172, 7.5, 100, 1000, 65504,
		1e-3, 1e-5, 6.1035156e-05 /* 2⁻¹⁴ */, 6.0975552e-05 /* largest subnormal half */, 5.9604645e-08, /* 2⁻²⁴ */
		2.9802322e-08 /* 2⁻²⁵ */, 4.4703484e-08 /* 1.5·2⁻²⁵ */, 1e-10, 1e-38, 1e-45, /* float32 subnormal */
		32768, 65519.996, 65520, 65536, 1e9, 3e38, inf, nan,
	}
	for e := -30; e <= 18; e += 3 {
		ms = append(ms, float32(math.Ldexp(1, e)), float32(math.Ldexp(1.7001953125, e)))
	}
	for _, m := range ms { // the range is over the positive half only
		ms = append(ms, -m)
	}
	return ms
}

var allHalves = sync.OnceValue(func() []float32 {
	hs := make([]float32, 1<<16)
	for h := range hs {
		hs[h] = Half(h).Float32()
	}
	return hs
})

// halvesTimesMultipliers: every half times each of halfRowMultipliers, as
// the row form's activation and as every element-wise one, from accumulators
// at 0.25 so that a wrong sign of zero shows.
func halvesTimesMultipliers(yield func(operands)) {
	hs := allHalves()
	acc := filled(len(hs), 0.25)
	for _, m := range halfRowMultipliers() {
		yield(operands{acc: acc, s: m, x: filled(len(hs), m), w: hs})
	}
}

// halvesTimesMultipliersDot: the same products in runs of eight from 0.25;
// one accumulator carries a run, and a NaN ends what a longer one could tell.
func halvesTimesMultipliersDot(yield func(operands)) {
	hs := allHalves()
	for _, m := range halfRowMultipliers() {
		ms := filled(8, m)
		for lo := 0; lo < len(hs); lo += 8 {
			yield(operands{s: 0.25, x: ms, w: hs[lo : lo+8]})
		}
	}
}

// bandEdgePatterns: every pattern of both signs within 2¹³ of each edge
// between rounding bands and of every power of two from 2⁻²⁷ to 2¹⁷, and
// every tie of the half-subnormal band with its two neighbours.
var bandEdgePatterns = sync.OnceValue(func() []float32 {
	var pats []float32
	add := func(b uint32) { pats = append(pats, math.Float32frombits(b), math.Float32frombits(b|f32Sign)) }
	edges := []uint32{0, f32HalfTiny, f32HalfNormal, f32HalfOver, 0x477fe000 /* HalfMax */, 0x7f800000 /* Inf */}
	for exp := uint32(127 - 27); exp <= 127+17; exp++ {
		edges = append(edges, exp<<23)
	}
	for _, e := range edges {
		for b := e - min(e, 1<<13); b <= e+1<<13 && b <= 0x7fffffff; b++ {
			add(b)
		}
	}
	for k := 0; k < 1024; k++ { // (k + ½)·2⁻²⁴ is the tie between subnormal halves k and k+1
		tie := math.Float32bits(float32(math.Ldexp(float64(k)+0.5, -24)))
		add(tie - 1)
		add(tie)
		add(tie + 1)
	}
	return pats
})

// bandEdgeProducts: bandEdgePatterns as exact products with 1, from +0.
func bandEdgeProducts(yield func(operands)) {
	p := bandEdgePatterns()
	yield(operands{acc: make([]float32, len(p)), s: 1, x: filled(len(p), 1), w: p})
}

// smallBandPatterns, where the converter and HalfFromFloat32 could part:
// every pattern of both signs with |p| in [2⁻²⁶, 2⁻¹³), and, for each of the
// 2¹⁹ settings of the bits a half keeps, the dropped 13 at 0, 1, around the
// tie and all ones: every tie of every binade, and Inf and NaN.
func smallBandPatterns(yield func(operands)) {
	const block = 1 << 13
	src := make([]float32, 2*block)
	for b := uint32(127-26) << 23; b < (127-13)<<23; b += block {
		for i := uint32(0); i < block; i++ {
			src[2*i], src[2*i+1] = math.Float32frombits(b+i), math.Float32frombits(b+i|f32Sign)
		}
		yield(operands{x: src})
	}
	lows := [...]uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff}
	src = src[:len(lows)*block/4]
	for prefix := uint32(0); prefix < 1<<19; prefix += block / 4 {
		for i := range src {
			src[i] = math.Float32frombits((prefix+uint32(i/len(lows)))<<13 | lows[i%len(lows)])
		}
		yield(operands{x: src})
	}
}

// decodeHalfRow: a multiplier, then the weights; the activations are the
// weights back to front, the accumulators 0.25.
func decodeHalfRow(data []byte) operands {
	head, rest := split(data, 4)
	w := words(rest)
	x := make([]float32, len(w))
	for i := range x {
		x[i] = w[len(w)-1-i]
	}
	return operands{acc: filled(len(w), 0.25), s: math.Float32frombits(binary.LittleEndian.Uint32(head)), x: x, w: w}
}

// halfRowSeeds: halfRowMultipliers against themselves, rotated a lane a seed,
// then, as products with 1 in every lane, inside (2⁻²⁵, 2⁻²⁴), on the 2⁻²⁵
// tie and either side of the overflow edge.
func halfRowSeeds() (seeds [][]byte) {
	ms := halfRowMultipliers()
	row := pack(ms...)
	for i, m := range ms {
		seeds = append(seeds, append(append(pack(m), row[4*i:]...), row[:4*i]...))
	}
	for _, edge := range []uint32{0x33000001, 0x337fffff, 0x33400000, 0x33000000, f32HalfOver - 1, f32HalfOver} {
		seed := pack(1)
		for lane := 0; lane < laneChunk; lane++ {
			seed = binary.LittleEndian.AppendUint32(seed, edge|uint32(lane&1)<<31)
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// halfRowBench: the row widths the zoo uses (16–32 output channels) and one
// long row.
func halfRowBench(f func(acc, a, w []float32)) (cs []benchCase) {
	for _, width := range []int{16, 32, 512} {
		cs = append(cs, benchCase{fmt.Sprintf("row%d", width), "MAC/s", func() (func(int), int) {
			a, w := benchOperands(width)
			acc := make([]float32, width)
			return func(int) { f(acc, a, w) }, width
		}})
	}
	return cs
}

// halfPanels: panels of every width 0–59, strides at and past it, 0–130
// rows (a 64-row group, 8-row steps, the rows past them), a third of the
// activations ±0, without thresholds and with; then, in every chunk of a 32-,
// a 16- and an 8-column block and the tail, each cause of a refused block: a
// rare product in the first, a middle and the last row (and that row
// skipped); ±Inf or a quiet or signalling NaN coming in in an accumulator; a
// -0 accumulator under ±0 rows; Inf under a ±0 activation.
func halfPanels(yield func(operands)) {
	rng := rand.New(rand.NewSource(79))
	for n := 0; n <= 59; n++ {
		for _, rows := range []int{0, 1, 2, 7, 20, 64, 71, 130} {
			stride := n + rng.Intn(3)*rng.Intn(9)
			o := operands{acc: halves(rng, n, 0, 1), x: halvesZeros(rng, rows, 3), w: halves(rng, rows*stride+n, 0, 0.05), stride: stride}
			yield(o)
			withThresholds(&o, true)
			yield(o)
		}
	}
	qnan, snan := math.Float32frombits(0xffc54000), math.Float32frombits(0x7fa54000)
	const n, rows, stride = 32 + 16 + 8 + 3, 6, 32 + 16 + 8 + 5
	panel := func(zeros int) operands {
		return operands{acc: halves(rng, n, 0, 1), x: halvesZeros(rng, rows, zeros), w: halves(rng, rows*stride, 0, 0.05),
			stride: stride}
	}
	for _, col := range []int{3, 12, 21, 30, 32 + 5, 32 + 14, 48 + 7, n - 1} {
		for _, sp := range []float32{inf, -inf, qnan, snan, 65504 /* × 2 overflows */} {
			for _, row := range []int{0, 3, rows - 1} {
				o := panel(0)
				o.x[row], o.w[row*stride+col] = 2, sp
				yield(o)
				o.x[row] = negZero
				withThresholds(&o, true)
				yield(o)
			}
		}
		for _, skip := range []bool{false, true} {
			for _, sp := range []float32{inf, -inf, qnan, snan} {
				o := panel(3)
				o.acc[col] = sp
				yield(withThresholds(&o, skip))
			}
			o := panel(1)
			o.acc[col] = negZero
			yield(withThresholds(&o, skip))
			for _, zero := range []float32{0, negZero} {
				o := panel(0)
				o.x[2], o.w[2*stride+col] = zero, inf
				yield(withThresholds(&o, skip))
			}
		}
	}
}

// withThresholds gives o the thresholds of its weight rows if on, none if
// not, and returns it.
func withThresholds(o *operands, on bool) operands {
	o.thr = nil
	switch {
	case on && o.stride == 0: // no columns: any thresholds will do
		o.thr = make([]uint32, len(o.x))
	case on:
		o.thr = HalfPanelThresholds(o.w, o.stride)
	}
	return *o
}

// tinyWeights are half subnormals and the smallest normal half, both signs:
// a row that holds one has a threshold from 2⁻¹⁰ to 1, which activations
// ~ N(0, 1) fall on either side of.
var tinyWeights = []float32{5.9604645e-08, -1.1920929e-07, 1.7881393e-07, -2.9802322e-07, 9.536743e-07,
	-3.8146973e-06, 6.0975552e-05, -6.1035156e-05}

// halfPanelOperands: 1–160 rows by n columns at stride n or past it, weights
// ~ N(0, 0.05²) with one in 24 a tiny weight; half the panels with their
// thresholds. Activations ~ N(0, 1), a third of them ±0; with thresholds a
// sixth sit exactly on their row's threshold or one ulp below it; a quarter
// of the panels have one ±Inf or NaN activation.
func halfPanelOperands(rng *rand.Rand, n, off int) operands {
	rows, stride := 1+rng.Intn(160), n+rng.Intn(3)*rng.Intn(9)
	o := operands{acc: halves(rng, n, off, 1), x: halves(rng, rows, 0, 1), w: halves(rng, rows*stride+n, (off+5)%8, 0.05), stride: stride}
	for i := range o.w {
		if rng.Intn(24) == 0 {
			o.w[i] = tinyWeights[rng.Intn(len(tinyWeights))]
		}
	}
	withThresholds(&o, rng.Intn(2) == 0)
	for i := range o.x {
		sign := uint32(rng.Intn(2)) << 31
		switch r := rng.Intn(12); {
		case r < 4:
			o.x[i] = math.Float32frombits(sign)
		case r < 6 && o.thr != nil && o.thr[i] != 0:
			o.x[i] = math.Float32frombits(o.thr[i] - uint32(r-4) | sign)
		}
	}
	if rng.Intn(4) == 0 {
		o.x[rng.Intn(rows)] = []float32{nan, inf, -inf}[rng.Intn(3)]
	}
	return o
}

// decodeHalfPanel: width, gap, thresholds or not and the column of one
// accumulator (a byte each) and that accumulator's bits, then the activations
// and the weight rows; the other accumulators start at 0.25.
func decodeHalfPanel(data []byte) operands {
	head, rest := split(data, 8)
	acc := filled(int(head[0]%60), 0.25)
	if len(acc) > 0 {
		acc[int(head[3])%len(acc)] = math.Float32frombits(binary.LittleEndian.Uint32(head[4:]))
	}
	o := panelRows(acc, words(rest), len(acc)+int(head[1]%7))
	return withThresholds(&o, head[2]&1 == 1)
}

// panelRows cuts vals into the activations and the weight rows of a panel.
func panelRows(acc, vals []float32, stride int) operands {
	rows := len(vals) / (1 + stride)
	if stride == 0 {
		rows = min(len(vals), 4)
	}
	return operands{acc: acc, x: vals[:rows], w: vals[rows:], stride: stride}
}

// panelBytes is rows activations (a, then 1s) and rows×stride weights of 0.5
// with sp at (row, col), behind the given bytes.
func panelBytes(head []byte, rows, stride, row, col int, sp float32, a ...float32) []byte {
	vals := filled(rows+rows*stride, 0.5)
	copy(vals, filled(rows, 1))
	copy(vals, a)
	vals[rows+row*stride+col] = sp
	return append(head, pack(vals...)...)
}

// halfPanelSeeds: rare products in the first and last chunk, row and tail;
// narrow and strided panels; ±0 rows over NaN-making weights; the converter's
// wrong products; overflow in a block's last row; odd accumulators; the
// threshold's edge over two row groups.
func halfPanelSeeds() [][]byte {
	seed := func(width, gap uint8, skip bool, accBits uint32, accCol uint8, rows, row, col int, sp float32, a ...float32) []byte {
		head := []byte{width, gap, 0, accCol}
		if skip {
			head[2] = 1
		}
		return panelBytes(binary.LittleEndian.AppendUint32(head, accBits), rows, int(width+gap), row, col, sp, a...)
	}
	q := math.Float32bits(0.25)
	seeds := [][]byte{
		seed(16, 0, false, q, 0, 3, 0, 1, inf), seed(16, 0, false, q, 0, 3, 1, 15, nan),
		seed(19, 0, false, q, 0, 3, 2, 9, 65536), seed(19, 0, false, q, 0, 3, 1, 18, inf),
		seed(8, 5, true, q, 0, 4, 2, 3, 1e-7), seed(5, 0, true, q, 0, 4, 0, 0, -inf),
		seed(9, 2, true, q, 0, 3, 1, 4, inf, 0, negZero, 0), seed(9, 2, false, q, 0, 3, 1, 4, inf, 0, negZero, 0),
		seed(24, 1, true, q, 0, 5, 4, 23, 3e-6, 2, negZero, -1, 0),
	}
	for _, edge := range []uint32{0x33400000, 0x337fffff, 0x33000000, f32HalfOver - 1, f32HalfOver} {
		seeds = append(seeds, seed(16, 0, false, q, 0, 1, 0, 9, math.Float32frombits(edge)))
	}
	seeds = append(seeds, seed(40, 0, false, q, 0, 3, 2, 37, 65504, 1, 1, 2))
	for i, acc := range []uint32{0x7f800000, 0xff800000, 0x7fc00000, 0x7fa00000} {
		seeds = append(seeds, seed(59, 1, i%2 == 0, acc, []uint8{5, 37, 50, 57}[i], 4, 1, 7, 0.25, 1, 0, -2))
	}
	seeds = append(seeds, seed(59, 0, true, f32Sign, 20, 3, 1, 7, 0.25, 0, negZero, 0),
		seed(59, 0, false, f32Sign, 40, 3, 1, 7, 0.25, 0, negZero, 0))
	// With thresholds, over a 64-row group and a second one, rows 0 and row
	// alone not ±0, so that a flushed product shows in a sum of 0.75: a 2⁻²⁴
	// weight met by 0.75 (masked, the product flushes) and by the float32
	// just below 1 (one ulp under its row's threshold of 1), and a NaN; then
	// every row 1.
	group := func(row int, a float32) []float32 {
		acts := make([]float32, 72)
		acts[0], acts[row] = 1, a
		return acts
	}
	return append(seeds, seed(16, 0, true, q, 0, 72, 69, 5, 0x1p-24, group(69, 0.75)...),
		seed(16, 0, true, q, 0, 72, 70, 5, 0x1p-24, group(70, math.Nextafter32(1, 0))...),
		seed(16, 0, true, q, 0, 72, 3, 5, 0.5, group(66, nan)...), seed(16, 0, true, q, 0, 72, 3, 5, 0.5))
}

// halfPanelBench: pixel/c* are resnet-lite's calls (72 rows by 27.6 columns,
// 57% of rows ±0), the case to quote; like n*/rows* they run with the
// weights' thresholds, as the conv and dense kernels call the panel, and
// unskipped/n32/rows144 without, as matmul and the cycle-level reference do.
// oneInfRow and allNaN are the block rule's worst cases, every block run by
// the lanes and then the Go loop.
func halfPanelBench() []benchCase {
	panel := HalfMulAddPanel
	cs := []benchCase{pixels("pixel/c16", 16, 16, 0.57, panel), pixels("pixel/c32", 8, 32, 0.57, panel)}
	for _, n := range []int{8, 16, 32, 64, 72} {
		for _, rows := range []int{16, 144, 576} {
			cs = append(cs, onPanel(fmt.Sprintf("n%d/rows%d", n, rows), n, fixedPanel(n, rows), panel))
		}
	}
	unskipped := func(acc, a, w []float32, stride int, _ []uint32) { HalfMulAddPanel(acc, a, w, stride, nil) }
	cs = append(cs, onPanel("unskipped/n32/rows144", 32, fixedPanel(32, 144), unskipped))
	const n, rows = 32, 144
	oneInf := func() (a, w []float32) {
		a, w = benchOperands(rows * n)
		a = append([]float32(nil), a[:rows]...)
		a[rows/2] = inf
		return a, w
	}
	allNaN := func() (a, w []float32) {
		_, w = benchOperands(rows * n)
		return filled(rows, nan), w
	}
	return append(cs, onPanel("oneInfRow", n, oneInf, panel), onPanel("allNaN", n, allNaN, panel))
}

// floatPanel: n columns (the accumulators off elements in) by rows rows,
// stride at or past n, every third activation ±0, each value one of
// floatRowSpecials with probability p (weights p/3).
func floatPanel(rng *rand.Rand, n, off, rows int, p float64) operands {
	stride := n + rng.Intn(3)*rng.Intn(9)
	o := operands{x: drawSpecial(rng, rows, 0, 1, p), w: drawSpecial(rng, rows*stride+n, 0, 0.1, p/3),
		acc: drawSpecial(rng, n, off, 1, p), stride: stride}
	for i := 0; i < rows; i += 3 {
		o.x[i] = []float32{0, negZero}[rng.Intn(2)]
	}
	return o
}

// floatPanels: every width 0–41 (every combination of blocks and tail) by
// every row count 0–30, plain and with specials, so NaN meets NaN in
// multiplies and adds; then -0 × Inf in a column of each block and the tail.
func floatPanels(yield func(operands)) {
	rng := rand.New(rand.NewSource(83))
	for n := 0; n <= 41; n++ {
		for rows := 0; rows <= 30; rows++ {
			yield(floatPanel(rng, n, 0, rows, 0))
			yield(floatPanel(rng, n, 0, rows, 0.15))
		}
	}
	const n, rows, stride = 16 + 12 + 3, 5, 16 + 12 + 5
	for _, col := range []int{0, 15, 16, 23, 24, 27, 28, n - 1} {
		for _, row := range []int{0, 2, rows - 1} {
			o := operands{acc: make([]float32, n), x: drawSpecial(rng, rows, 0, 1, 0), w: drawSpecial(rng, rows*stride, 0, 0.1, 0), stride: stride}
			o.x[row], o.w[row*stride+col] = negZero, inf
			yield(o)
		}
	}
}

// decodeFloatPanel: width and gap (a byte each), then the accumulators, the
// activations and the weight rows.
func decodeFloatPanel(data []byte) operands {
	head, rest := split(data, 2)
	vals, acc := words(rest), make([]float32, head[0]%42)
	return panelRows(acc, vals[copy(acc, vals):], len(acc)+int(head[1]%7))
}

// floatPanelSeeds: each block size alone, blocks in a row, the tail; -0 or
// +0 × Inf, NaNs of two payloads meeting in the multiply and in the add, an
// overflowing sum.
func floatPanelSeeds() [][]byte {
	nanA, nanB := math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00001)
	seed := func(n, gap, rows, row, col int, acc, sp float32, a ...float32) []byte {
		return panelBytes(append([]byte{uint8(n), uint8(gap)}, pack(filled(n, acc)...)...), rows, n+gap, row, col, sp, a...)
	}
	return [][]byte{
		seed(16, 0, 3, 1, 9, 0, inf, 2, negZero),            // the 16-block: -0 × Inf
		seed(16, 2, 3, 0, 15, 0, -inf, 0, 2),                // and +0 × -Inf, the last column
		seed(12, 3, 4, 2, 11, nanA, nanB),                   // the 12-block: NaN + NaN
		seed(8, 0, 3, 0, 7, 1, nanB, nanA),                  // the 8-block: NaN × NaN
		seed(4, 1, 5, 4, 3, math.MaxFloat32, 3e38, 2, 0),    // the 4-block: overflow
		seed(3, 0, 2, 1, 2, -inf, 1e-40),                    // the tail alone
		seed(41, 2, 3, 2, 40, 0.25, -inf, 1e-40, 0, -1),     // 16, 16, 8 and a tail
		seed(31, 0, 2, 1, 27, inf, -inf, 1, 1),              // 16, 12 and a tail: Inf - Inf
		seed(20, 6, 3, 0, 16, 0, nanA, negZero, 0, negZero), // 16 and 4, every row ±0
	}
}

// floatPanelBench: pixel/c* are inception-lite's calls, a 16×16×8 map half
// 0 to its branches' channels, the case to quote; n<width> is 72 activations.
func floatPanelBench() (cs []benchCase) {
	for _, n := range []int{4, 8, 12} {
		cs = append(cs, pixels(fmt.Sprintf("pixel/c%d", n), 16, 8, 0.5, mulAddPanel, n))
	}
	for _, n := range []int{4, 8, 12, 16, 32} {
		cs = append(cs, onPanel(fmt.Sprintf("n%d", n), n, fixedPanel(n, 72), mulAddPanel))
	}
	return cs
}

// quantCases: both widths over ranges whose scale runs from 0 to the largest
// finite, the zero Quantizer, and quantizers of Scale and Bits alone, whose
// bounds are both 0: every finite value is in two cases of the switch.
var quantCases = func() []Quantizer {
	qs := []Quantizer{{}}
	for _, bits := range []int{8, 16} {
		for _, maxAbs := range []float32{1e-44, 1e-40, 1e-30, 3e-5, 0.37, 1, 4, 8, 127, 1000.5, 3.3e9, 1e30, 3e38} {
			qs = append(qs, MustQuantizer(maxAbs, bits))
		}
		for _, scale := range []float32{1e-30, 1, 3e38} {
			qs = append(qs, Quantizer{Scale: scale, Bits: bits})
		}
	}
	return qs
}()

// quantTies: every quantizer under both floors (Round's -Inf, Saturate's
// -MaxAbs()-Scale) on every tie (k+½)·Scale from two codes below the range to
// two above and its neighbours, floatRowSpecials and 2¹⁶ random patterns.
func quantTies(yield func(operands)) {
	rng := rand.New(rand.NewSource(89))
	random := make([]float32, 1<<16)
	for i := range random {
		random[i] = math.Float32frombits(rng.Uint32())
	}
	for _, q := range quantCases {
		vals := append(append([]float32(nil), floatRowSpecials...), random...)
		floors := []float32{-inf}
		if q.Bits != 0 { // the zero Quantizer has no code range, and so no MaxAbs
			floors = append(floors, -q.MaxAbs()-q.Scale)
			lo, hi := q.qlimits()
			for k := lo - 2; k <= hi+1; k++ {
				tie := float32((float64(k) + 0.5) * float64(q.Scale))
				vals = append(vals, tie, math.Nextafter32(tie, inf), math.Nextafter32(tie, -inf))
			}
		}
		for _, floor := range floors {
			yield(operands{q: q, x: vals, lo: floor})
		}
	}
}

// quantBench: a 16×16×16 map of N(0, 1) values in a range of ±4 (INT8: a few
// saturate), what every rectifier, batch-norm and residual row ends on in a
// quantized network.
func quantBench() (cs []benchCase) {
	for _, bits := range []int{8, 16} {
		cs = append(cs, benchCase{fmt.Sprintf("int%d", bits), "ns/value", func() (func(int), int) {
			src, _ := benchOperands(4096)
			dst, q := make([]float32, len(src)), MustQuantizer(4, bits)
			return func(int) { q.roundInto(dst, src, -inf) }, len(src)
		}})
	}
	return cs
}

// saturateBench: Codec.SaturateInto over a 64-wide output row, the epilogue
// of every kernel tile: accumulators ~ N(0, 3²), none of which saturate in
// FP16 and a few of which do in INT8.
func saturateBench(p Precision, maxAbs float32) benchCase {
	return benchCase{"saturate/" + strings.ToLower(p.String()), "ns/value", func() (func(int), int) {
		src, dst, c := normals(72, 64, 3), make([]float32, 64), MustCodec(p, maxAbs)
		return func(int) { c.SaturateInto(dst, src) }, len(src)
	}}
}

// maxPairs: every pair of floatRowSpecials — a NaN on either side never
// moves the maximum, +0 does not displace -0 nor -0 +0 — then random pairs.
func maxPairs(yield func(operands)) {
	var ms, vs []float32
	for _, m := range floatRowSpecials {
		for _, v := range floatRowSpecials {
			ms, vs = append(ms, m), append(vs, v)
		}
	}
	rng := rand.New(rand.NewSource(101))
	ms, vs = append(ms, drawSpecial(rng, 5000, 0, 2, 0.05)...), append(vs, drawSpecial(rng, 5000, 0, 2, 0.05)...)
	eachRow(len(vs), func(lo, hi int) { yield(operands{acc: ms[lo:hi], x: vs[lo:hi]}) })
}

var clipBounds = [][2]float32{{0, 6}, {-2.5, 2.5}, {-1e-40, math.MaxFloat32}}

// rectifierRows: floatRowSpecials, each bound and its neighbours and 10⁴
// random values.
func rectifierRows(bounds []float32, f func(x []float32)) {
	vals := append([]float32(nil), floatRowSpecials...)
	for _, b := range bounds {
		vals = append(vals, b, math.Nextafter32(b, inf), math.Nextafter32(b, -inf))
	}
	vals = append(vals, drawSpecial(rand.New(rand.NewSource(97)), 10000, 0, 4, 0)...)
	eachRow(len(vals), func(lo, hi int) { f(vals[lo:hi]) })
}

// naiveDiffs is the diff scans' definition: the first and the last index at
// which a and b differ as tensor elements (len(a) and -1 when none does).
func naiveDiffs(a, b []float32) (first, last int) {
	first, last = len(a), -1
	for i, v := range a {
		if v != b[i] && !(v != v && b[i] != b[i]) {
			first, last = min(first, i), i
		}
	}
	return first, last
}

// equalFlip returns other bits of the same tensor element: the other zero, or
// another payload of a NaN; v itself otherwise.
func equalFlip(v float32) float32 {
	switch {
	case v == 0:
		return -v
	case v != v:
		return math.Float32frombits(math.Float32bits(v) ^ 0x80000001)
	}
	return v
}

// diffOperands: a row of diffSpecials and a second row, up to eight longer,
// that repeats it with equal-as-element bit changes strewn over it (false
// alarms the lanes hand back to the Go loop) and 0–3 real differences.
func diffOperands(rng *rand.Rand, n, off int) operands {
	a, b := at(n, off), at(n+rng.Intn(9), (off+3)%8)
	for i := range a {
		a[i] = diffSpecials[rng.Intn(len(diffSpecials))]
		b[i] = a[i]
		if rng.Intn(4) == 0 {
			b[i] = equalFlip(b[i])
		}
	}
	for k := rng.Intn(4); k > 0 && n > 0; k-- {
		if i := rng.Intn(n); b[i] == b[i] {
			b[i] = -b[i] - 1
		} else {
			b[i] = 3
		}
	}
	return operands{x: a, w: b}
}

// plantDiff puts v in the first row and, in the second, a false alarm (the
// other zero, another payload) or -v, a real difference.
func plantDiff(o *operands, i int, v float32) {
	o.x[i], o.w[i] = v, -v
	if v == 0 || v != v {
		o.w[i] = equalFlip(v)
	}
}

// diffRows: diffOperands of every length 0–140 (no chunk, a chunk, the
// four-chunk steps of the lanes, tails), then one real difference at every
// position of every length to 72, behind a false alarm in every chunk.
func diffRows(yield func(operands)) {
	rng := rand.New(rand.NewSource(16))
	for n := 0; n <= 140; n++ {
		for rep := 0; rep < 40; rep++ {
			yield(diffOperands(rng, n, rep%8))
		}
	}
	for n := 1; n <= 72; n++ {
		a := drawSpecial(rng, n, 0, 1, 0)
		for i := 0; i < n; i += 5 {
			a[i] = []float32{0, negZero, nan}[rng.Intn(3)]
		}
		for p := 0; p < n; p++ {
			b := append([]float32(nil), a...)
			for i := 0; i < n; i += 5 {
				b[i] = equalFlip(b[i])
			}
			b[p] = math.Nextafter32(b[p], inf)
			if a[p] != a[p] {
				b[p] = 1
			}
			yield(operands{x: a, w: b})
		}
	}
}

// decodeDiff: the length in bytes of a row (2 bytes), the row, and records of
// a 2-byte index and a 4-byte XOR mask that make the second row from it.
func decodeDiff(data []byte) operands {
	head, data := split(data, 2)
	k := min(int(binary.LittleEndian.Uint16(head)), len(data))
	a, flips := words(data[:k]), data[k:]
	b := append([]float32(nil), a...)
	for ; len(flips) >= 6 && len(b) > 0; flips = flips[6:] {
		i := int(binary.LittleEndian.Uint16(flips)) % len(b)
		b[i] = math.Float32frombits(math.Float32bits(b[i]) ^ binary.LittleEndian.Uint32(flips[2:]))
	}
	return operands{x: a, w: b}
}

// diffSeeds: false alarms in every chunk around a real mismatch in the first,
// the last and the tail chunk; false alarms alone; no chunk at all.
func diffSeeds() [][]byte {
	seed := func(vals []float32, flips ...uint32) []byte {
		row := pack(vals...)
		b := append(binary.LittleEndian.AppendUint16(nil, uint16(len(row))), row...)
		for i := 0; i < len(flips); i += 2 {
			b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(b, uint16(flips[i])), flips[i+1])
		}
		return b
	}
	const sign, payload, low = 0x80000000, 0x00000003, 0x00000001
	zeros, nans, ones := make([]float32, 45), make([]float32, 45), make([]float32, 45) // five chunks and a tail of 5
	for i := range nans {
		nans[i], ones[i] = math.Float32frombits(0x7fc00000|uint32(i)), float32(i)
	}
	return [][]byte{
		seed(zeros, 0, sign, 3, low, 9, sign, 44, sign), seed(zeros, 1, sign, 17, sign, 36, low, 38, sign),
		seed(nans, 2, payload, 30, sign, 42, 0x7fc00000), seed(nans, 0, payload, 8, payload, 16, payload, 40, 1),
		seed(ones, 0, sign), seed(ones, 33, low, 35, sign), seed(ones[:7], 6, sign),
	}
}

func rowMax(x []float32) float32 {
	m := float32(math.Inf(-1))
	for _, v := range x {
		m = max(m, v)
	}
	return m
}

// expProbes: every pattern at a stride of 2¹² in pattern order (whole chunks
// of one band side by side, so the lanes take most), every 2⁹th of the band
// where the reduction is not trivial (|x| from under ln2/2, where k stops
// being 0, to expBand), 2¹³ patterns around each of expEdges, expSpecials.
var expProbes = sync.OnceValue(func() []float32 {
	var x []float32
	for b := uint64(0); b < 1<<32; b += 1 << 12 {
		x = append(x, math.Float32frombits(uint32(b)))
	}
	for b := math.Float32bits(0.34); b <= math.Float32bits(expBand); b += 1 << 9 {
		x = append(x, math.Float32frombits(b), -math.Float32frombits(b))
	}
	for _, e := range expEdges {
		for b := math.Float32bits(e) - 1<<12; b < math.Float32bits(e)+1<<12; b++ {
			x = append(x, math.Float32frombits(b))
		}
	}
	return append(x, expSpecials...)
})

// expRows: expProbes from two offsets, so each meets two lanes of a chunk;
// softmax-shaped rows, shifted by their maximum and by -650, to 130 long.
func expRows(yield func(operands)) {
	x := expProbes()
	yield(operands{x: x})
	yield(operands{x: x[3:]})
	rng := rand.New(rand.NewSource(81))
	for n := 1; n <= 130; n++ {
		x := drawSpecial(rng, n, 0, 30, 0)
		yield(operands{x: x, s: rowMax(x)})
		yield(operands{x: x, s: -650})
	}
}

func decodeExp(data []byte) operands {
	head, rest := split(data, 4)
	return operands{x: words(rest), s: math.Float32frombits(binary.LittleEndian.Uint32(head))}
}

// expSeeds: whole chunks of each band edge and special value, alone and
// beside in-band lanes.
func expSeeds() (seeds [][]byte) {
	for _, v := range append(append([]float32(nil), expEdges...), expSpecials...) {
		same, mixed := filled(2*laneChunk, v), filled(2*laneChunk, v)
		for lane := range mixed {
			if lane%3 != 0 {
				mixed[lane] = float32(lane) - 7
			}
		}
		seeds = append(seeds, append(pack(0), pack(same...)...), append(pack(0), pack(mixed...)...), append(pack(-v), pack(mixed...)...))
	}
	return seeds
}

// benchOperands returns n activations ~ N(0,1) and n weights ~ N(0, 0.1²),
// both halves: the zoo's conv layers in miniature, about 4% of the products
// half subnormals.
func benchOperands(n int) (a, w []float32) {
	rng := rand.New(rand.NewSource(71))
	a, w = make([]float32, n), make([]float32, n)
	for i := range a {
		a[i] = RoundHalf(float32(rng.NormFloat64()))
		w[i] = RoundHalf(float32(rng.NormFloat64() * 0.1))
	}
	return a, w
}

func normals(seed int64, n int, sd float64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * sd)
	}
	return s
}

// panelFunc is a panel under benchmark: HalfMulAddPanel, or a form that
// ignores the thresholds it is handed.
type panelFunc func(acc, a, w []float32, stride int, thr []uint32)

// mulAddPanel is MulAddPanel as a panelFunc.
func mulAddPanel(acc, a, w []float32, stride int, _ []uint32) { MulAddPanel(acc, a, w, stride) }

// pixels is a case of one output pixel an iteration, as nn's convPixel
// computes it, of a 3×3 convolution of one of 16 size×size×in post-ReLU maps
// (a value 0 with probability zeros) to out channels (in, unless given).
func pixels(name string, size, in int, zeros float64, panel panelFunc, out ...int) benchCase {
	return benchCase{name, "MAC/s", func() (func(int), int) {
		outC, rng := append(out, in)[0], rand.New(rand.NewSource(74))
		const maps = 16
		src := make([]float32, maps*size*size*in)
		for i := range src {
			if rng.Float64() >= zeros {
				src[i] = RoundHalf(float32(math.Abs(rng.NormFloat64())))
			}
		}
		_, w := benchOperands(9 * in * outC)
		thr := HalfPanelThresholds(w, outC)
		acc := make([]float32, outC)
		pixel := func(i int) (macs int) {
			m, oy, ox := i/(size*size)%maps, i/size%size, i%size
			clear(acc)
			kxLo, kxHi := max(1-ox, 0), min(size+1-ox, 3)
			for ky := max(1-oy, 0); ky < min(size+1-oy, 3); ky++ {
				irow := src[((m*size+oy+ky-1)*size+ox+kxLo-1)*in : ((m*size+oy+ky-1)*size+ox+kxHi-1)*in]
				panel(acc, irow, w[(ky*3+kxLo)*in*outC:], outC, thr[(ky*3+kxLo)*in:])
				macs += len(irow) * outC
			}
			return macs
		}
		macs := 0
		for p := 0; p < size*size; p++ {
			macs += pixel(p)
		}
		return func(i int) { pixel(i) }, macs / (size * size)
	}}
}

// onPanel is a case of panel over operands into n accumulators cleared each
// iteration, with the weights' thresholds.
func onPanel(name string, n int, operands func() (a, w []float32), panel panelFunc) benchCase {
	return benchCase{name, "MAC/s", func() (func(int), int) {
		a, w := operands()
		thr := HalfPanelThresholds(w, n)
		acc := make([]float32, n)
		return func(int) {
			clear(acc)
			panel(acc, a, w, n, thr)
		}, len(a) * n
	}}
}

// fixedPanel is one vector of rows activations, every fifth 0, over one
// cache-resident panel of n columns: nothing misses and the zeros come in a
// fixed pattern, an upper bound no campaign sees.
func fixedPanel(n, rows int) func() (a, w []float32) {
	return func() (a, w []float32) {
		a, _ = benchOperands(rows)
		for i := 0; i < rows; i += 5 {
			a[i] = 0
		}
		_, w = benchOperands(rows * n)
		return a, w
	}
}
