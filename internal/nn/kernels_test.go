package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	_ "unsafe" // go:linkname

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// numericsHasAVX2 is numerics' unexported dispatch seam: true when its row
// primitives — the FP16 ones and the plain-float32 ones of every other
// precision — run their AVX2 lanes on this machine. The kernel tests turn it
// off to hold the pure-Go loops to the same reference.
//
//go:linkname numericsHasAVX2 fidelity/internal/numerics.hasAVX2
var numericsHasAVX2 bool

// kernelCodecs covers every datapath precision the zoo instantiates: both
// float widths (FP16 exercises the RoundHalf product-rounding path) and both
// quantized widths (which exercise Saturate clamping).
func kernelCodecs() []numerics.Codec {
	return []numerics.Codec{
		numerics.MustCodec(numerics.FP32, 0),
		numerics.MustCodec(numerics.FP16, 0),
		numerics.MustCodec(numerics.INT16, 8),
		numerics.MustCodec(numerics.INT8, 8),
	}
}

// runKernelModes evaluates f once per kernel configuration — reference
// loops, tiled single-threaded, and tiled with forced goroutine bands (the
// parallel path is unreachable on a single-CPU machine without the force),
// the tiled ones with numerics' AVX2 lanes as detected and again with them off
// (which is a lanes-off leg for every codec: the FP16 panel, the float32 panel
// of INT8 / INT16 / FP32 and the quantizers' rounding all hang on the one
// seam) — and requires every output to be bit-identical to the reference.
func runKernelModes(t *testing.T, label string, f func() *tensor.Tensor) {
	t.Helper()
	modes := []struct {
		name    string
		ref     bool
		workers int32
		goLoops bool
	}{
		{"reference", true, 0, false},
		{"tiled-serial", false, 1, false},
		{"tiled-4-bands", false, 4, false},
		{"tiled-7-bands", false, 7, false}, // ragged band split
		{"tiled-serial-go-loops", false, 1, true},
		{"tiled-4-bands-go-loops", false, 4, true},
	}
	detected := numericsHasAVX2
	defer func() { numericsHasAVX2 = detected }()
	var want *tensor.Tensor
	for _, m := range modes {
		SetReferenceKernels(m.ref)
		forceKernelWorkers.Store(m.workers)
		numericsHasAVX2 = detected && !m.goLoops
		got := f()
		SetReferenceKernels(false)
		forceKernelWorkers.Store(0)
		if want == nil {
			want = got
			continue
		}
		if !want.SameShape(got) {
			t.Fatalf("%s/%s: shape %v, reference %v", label, m.name, got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if !sameValue(v, want.Data()[i]) {
				t.Fatalf("%s/%s: output[%d] = %v, reference %v", label, m.name, i, v, want.Data()[i])
			}
		}
	}
}

// sameValue reports bit equality, except that any NaN equals any NaN: when
// two NaNs of opposite sign meet in an accumulator the hardware keeps the
// destination operand's sign, and which operand that is is the compiler's
// choice in each loop — no kernel promises it.
func sameValue(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// adversarial overwrites a share of data with the values that separate a
// fused or skipping kernel from the reference if anything does: both zeros,
// NaN, both infinities, products that land in the half-subnormal and
// underflow bands, and float32 subnormals.
func adversarial(data []float32, rng *rand.Rand) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		6.1035156e-05, -5.9604645e-08, 2.9802322e-08, 1e-7, -3e-6, 1e-40, 65504, -70000,
	}
	for i := range data {
		switch r := rng.Intn(10); {
		case r < 4: // post-ReLU share of zeros
			data[i] = specials[rng.Intn(2)]
		case r < 6:
			data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// checkNeurons recomputes output neurons of out one by one through
// site.ComputeNeuron — every one for small outputs, a stride sample above
// 4096 — and requires each to equal the forward pass.
func checkNeurons(t *testing.T, label string, site Site, op *Operands) {
	t.Helper()
	od := op.Out.Data()
	step := 1 + len(od)/4096
	for flat := 0; flat < len(od); flat += step {
		if got := site.ComputeNeuron(op, flat, nil); !sameValue(got, od[flat]) {
			t.Fatalf("%s: ComputeNeuron(%d) = %v [%#08x], forward %v [%#08x]", label,
				flat, got, math.Float32bits(got), od[flat], math.Float32bits(od[flat]))
		}
	}
}

// weightVariants are the weight conditions every kernel equivalence test
// runs under: as drawn; with ±Inf and NaN planted, which must turn the
// zero-activation skip off (0 × Inf is NaN, not 0); and with zeros and tiny
// values planted.
var weightVariants = []string{"finite", "nonfinite", "sparse-tiny"}

// plantWeights plants variant into w, whose last axis is a weight row.
// sparse-tiny makes w finite, also once rounded to FP16, and gives the FP16
// panel both of its row forms: the even rows get zeros alone, so that their
// thresholds stay far below the activations; the odd rows get the
// adversarial values and 2⁻²⁴, the smallest half subnormal, which puts their
// threshold at 1, above most of them.
func plantWeights(variant string, w *tensor.Tensor, rng *rand.Rand) {
	d, stride := w.Data(), w.Dim(w.Rank()-1)
	switch variant {
	case "nonfinite":
		for _, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e30} {
			d[rng.Intn(len(d))] = v
		}
	case "sparse-tiny":
		for lo := 0; lo < len(d); lo += stride {
			row, odd := d[lo:lo+stride], lo/stride%2 == 1
			if odd {
				adversarial(row, rng)
			}
			for i, v := range row {
				switch {
				case !(v > -60000 && v < 60000): // what an earlier variant planted too
					row[i] = 1
				case !odd && rng.Intn(3) == 0:
					row[i] = 0
				}
			}
			if odd {
				row[rng.Intn(stride)] = 0x1p-24
			}
		}
	}
}

// TestConvKernelEquivalence sweeps convolution geometries — padded, strided,
// 1×1, depthwise, and one large enough to clear parallelMACThreshold so the
// forced goroutine bands actually engage — across every codec.
func TestConvKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name                         string
		kh, kw, inC, outC, stride, p int
		h, w                         int
		depthwise                    bool
	}{
		{"3x3-pad", 3, 3, 4, 6, 1, 1, 9, 9, false},
		{"5x3-stride2", 5, 3, 3, 5, 2, 2, 11, 13, false},
		{"1x1", 1, 1, 8, 8, 1, 0, 6, 6, false},
		{"depthwise", 3, 3, 8, 8, 1, 1, 10, 10, true},
		{"large-banded", 3, 3, 16, 32, 1, 1, 24, 24, false},
		{"depthwise-banded", 3, 3, 48, 48, 1, 1, 32, 32, true},
	}
	kinds := rowKinds{}
	for _, g := range geoms {
		for _, codec := range kernelCodecs() {
			label := fmt.Sprintf("conv/%s/%s", g.name, codec.Precision())
			rng := rand.New(rand.NewSource(21))
			var l *Conv2D
			if g.depthwise {
				l = NewDepthwiseConv2D("c", g.kh, g.kw, g.inC, g.stride, g.p, codec)
				l.W.RandNormal(rng, 1)
				l.B.RandNormal(rng, 0.25)
				l.InvalidateWeights()
			} else {
				l = NewConv2D("c", g.kh, g.kw, g.inC, g.outC, g.stride, g.p, codec).InitRandom(rng, 1)
			}
			x := tensor.New(2, g.h, g.w, g.inC)
			x.RandNormal(rng, 1)
			runKernelModes(t, label, func() *tensor.Tensor { return l.Forward(x, nil) })

			// Adversarial activations under each weight condition, against
			// the reference kernel and against per-neuron ComputeNeuron.
			adversarial(x.Data(), rng)
			for _, variant := range weightVariants {
				plantWeights(variant, l.W, rng)
				l.InvalidateWeights()
				vlabel := label + "/adversarial/" + variant
				// Thresholds exist at FP16 alone, and only over finite weights.
				if got, want := l.wcache.get(codec, l.W).thr != nil, codec.Precision() == numerics.FP16 && variant != "nonfinite"; got != want {
					t.Fatalf("%s: weight cache has thresholds %v, want %v", vlabel, got, want)
				}
				if variant == "sparse-tiny" && !g.depthwise {
					kinds.add(codec, l.W, func(visit func(a float32, row int)) {
						convVisits(l, codec.RoundSlice(x.Data()), x.Dim(1), x.Dim(2), visit)
					})
				}
				runKernelModes(t, vlabel, func() *tensor.Tensor { return l.Forward(x, nil) })
				checkNeurons(t, vlabel, l, &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)})
			}
		}
	}
	kinds.check(t)
}

// TestZeroSkipGuardFollowsWeights walks one layer's weights finite → Inf →
// other finite weights through InvalidateWeights: the skip guard, the
// thresholds, must follow, and while the Inf is there a zero activation
// against it must come out NaN, as the reference computes it — the value a
// skipped row would lose.
func TestZeroSkipGuardFollowsWeights(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	conv := NewConv2D("c", 1, 1, 2, 2, 1, 0, codec)
	dense := NewDense("d", 2, 2, codec)
	for _, w := range []*tensor.Tensor{conv.W, dense.W} {
		copy(w.Data(), []float32{1, 2, 3, 4}) // (in, out): input 0 feeds both outputs
	}
	xc, xd := tensor.New(1, 1, 1, 2), tensor.New(1, 2)
	for _, x := range []*tensor.Tensor{xc, xd} {
		copy(x.Data(), []float32{0, 1}) // input 0 is the zero activation
	}
	forward := func() (c, d []float32) { return conv.Forward(xc, nil).Data(), dense.Forward(xd, nil).Data() }
	// guard checks that both layers hold the thresholds of their weights as
	// they are now, or none.
	guard := func(when string, on bool) {
		t.Helper()
		for _, l := range []struct {
			name string
			w    *tensor.Tensor
			thr  []uint32
		}{{"conv", conv.W, conv.wcache.get(codec, conv.W).thr}, {"dense", dense.W, dense.wcache.get(codec, dense.W).thr}} {
			want := []uint32(nil)
			if on {
				want = numerics.HalfPanelThresholds(codec.RoundSlice(l.w.Data()), 2)
			}
			if (l.thr == nil) != (want == nil) || !slices.Equal(l.thr, want) {
				t.Fatalf("%s: %s thresholds %#x, want %#x", when, l.name, l.thr, want)
			}
		}
	}
	set := func(v float32) {
		conv.W.Data()[0], dense.W.Data()[0] = v, v
		conv.InvalidateWeights()
		dense.InvalidateWeights()
	}

	set(1)
	guard("finite weights", true)
	if c, d := forward(); c[0] != 3 || d[0] != 3 {
		t.Fatalf("finite weights: outputs %v %v, want 3 at neuron 0", c, d)
	}
	set(float32(math.Inf(1)))
	guard("Inf weight after InvalidateWeights", false)
	if c, d := forward(); c[0] == c[0] || d[0] == d[0] || c[1] != 4 || d[1] != 4 {
		t.Fatalf("Inf weight × zero activation: outputs %v %v, want NaN at neuron 0 and 4 at neuron 1", c, d)
	}
	set(0.5) // row 0's threshold doubles: 2⁻²³ where it was 2⁻²⁴
	guard("weights finite again", true)
	if c, d := forward(); c[0] != 3 || d[0] != 3 {
		t.Fatalf("weights finite again: outputs %v %v, want 3 at neuron 0", c, d)
	}
}

// TestDenseKernelEquivalence covers small and band-splitting dense layers
// across every codec, including a no-bias variant.
func TestDenseKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name    string
		in, out int
		batch   int
		bias    bool
	}{
		{"small", 7, 5, 1, true},
		{"no-bias", 16, 9, 3, false},
		{"large-banded", 512, 300, 1, true},
	}
	kinds := rowKinds{}
	for _, g := range geoms {
		for _, codec := range kernelCodecs() {
			label := fmt.Sprintf("dense/%s/%s", g.name, codec.Precision())
			rng := rand.New(rand.NewSource(22))
			l := NewDense("d", g.in, g.out, codec).InitRandom(rng, 1)
			if !g.bias {
				l.B = nil
			}
			x := tensor.New(g.batch, g.in)
			x.RandNormal(rng, 1)
			runKernelModes(t, label, func() *tensor.Tensor { return l.Forward(x, nil) })

			adversarial(x.Data(), rng)
			for _, variant := range weightVariants {
				plantWeights(variant, l.W, rng)
				l.InvalidateWeights()
				vlabel := label + "/adversarial/" + variant
				if variant == "sparse-tiny" {
					kinds.add(codec, l.W, func(visit func(a float32, row int)) {
						for i, a := range codec.RoundSlice(x.Data()) {
							visit(a, i%g.in)
						}
					})
				}
				runKernelModes(t, vlabel, func() *tensor.Tensor { return l.Forward(x, nil) })
				checkNeurons(t, vlabel, l, &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)})
			}
		}
	}
	kinds.check(t)
}

// rowKinds counts the rows the FP16 panel visits, the nonzero rounded
// activations against the weight rows they meet, by the form they take
// against the thresholds of the rounded weights: at or above the row's
// threshold, without the underflow mask, or below it, with. The kernel tests
// count them per precision over the sparse-tiny variant of every geometry.
type rowKinds map[numerics.Precision]*struct{ above, below int }

// add counts what visits calls visit with: each (activation, weight row)
// pair of a forward of weights w at codec's precision.
func (k rowKinds) add(codec numerics.Codec, w *tensor.Tensor, visits func(visit func(a float32, row int))) {
	thr := numerics.HalfPanelThresholds(codec.RoundSlice(w.Data()), w.Dim(w.Rank()-1))
	n := k[codec.Precision()]
	if n == nil {
		n = &struct{ above, below int }{}
		k[codec.Precision()] = n
	}
	visits(func(a float32, row int) {
		switch abs := math.Float32bits(a) &^ (1 << 31); {
		case abs == 0:
		case abs >= thr[row]:
			n.above++
		default:
			n.below++
		}
	})
}

// check requires both forms at the float precisions (at FP32 the same
// weights and activations stand for what they would be at FP16). The
// quantized grids have none below: two quanta multiply to 2⁻²⁴ or more.
func (k rowKinds) check(t *testing.T) {
	for p, n := range k {
		t.Logf("%v sparse-tiny: %d visited rows at or above their threshold, %d below", p, n.above, n.below)
		if (p == numerics.FP16 || p == numerics.FP32) && (n.above == 0 || n.below == 0) {
			t.Errorf("%v sparse-tiny: %d visited rows at or above their threshold and %d below, want both", p, n.above, n.below)
		}
	}
}

// convVisits calls visit with every (activation, weight row) pair of l's
// convolution over the rounded input rin of h×w maps, padding left out.
func convVisits(l *Conv2D, rin []float32, h, w int, visit func(a float32, row int)) {
	oh, ow := l.outHW(h, w)
	for bi := 0; bi < len(rin)/(h*w*l.InC); bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ky := 0; ky < l.KH; ky++ {
					for kx := 0; kx < l.KW; kx++ {
						iy, ix := oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						for ic := 0; ic < l.InC; ic++ {
							visit(rin[((bi*h+iy)*w+ix)*l.InC+ic], (ky*l.KW+kx)*l.InC+ic)
						}
					}
				}
			}
		}
	}
}

// TestMatMulKernelEquivalence covers plain and transposed-B matmuls with and
// without output scaling, including a product large enough to band.
func TestMatMulKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name       string
		m, k, n    int
		transposeB bool
		scale      float32
	}{
		{"plain", 5, 7, 6, false, 0},
		{"transposed-scaled", 6, 8, 5, true, 0.125},
		{"large-banded", 64, 64, 64, false, 0},
		{"large-banded-T", 64, 64, 64, true, 0.5},
		// A transposed operand goes through the panel like a plain one: widths
		// with a tail behind the whole chunks, one narrower than a chunk beside
		// a long inner dimension, and a single product per output.
		{"ragged-T", 7, 9, 19, true, 0.25},
		{"wide-ragged-T", 9, 16, 35, true, 0},
		{"narrow-T", 4, 33, 3, true, 0.5},
		{"k1-T", 5, 1, 11, true, 0},
		{"k1", 5, 1, 11, false, 0},
	}
	for _, g := range geoms {
		for _, codec := range kernelCodecs() {
			label := fmt.Sprintf("matmul/%s/%s", g.name, codec.Precision())
			rng := rand.New(rand.NewSource(23))
			site := NewMatMulSite("mm", g.transposeB, g.scale, codec)
			a := tensor.New(g.m, g.k)
			a.RandNormal(rng, 1)
			bd0, bd1 := g.k, g.n
			if g.transposeB {
				bd0, bd1 = g.n, g.k
			}
			b := tensor.New(bd0, bd1)
			b.RandNormal(rng, 1)
			runKernelModes(t, label, func() *tensor.Tensor { return site.Run(a, b, nil) })

			// ±Inf, NaN and an overflowing value in B alone: the lanes bail in
			// the chunks that hold them and the Go loop takes those.
			nb := b.Clone()
			plantWeights("nonfinite", nb, rng)
			runKernelModes(t, label+"/nonfinite-B", func() *tensor.Tensor { return site.Run(a, nb, nil) })
			checkNeurons(t, label+"/nonfinite-B", site, &Operands{In: a, W: nb, Out: site.Run(a, nb, nil)})

			// Both operands of a matmul are activations: make both adversarial.
			adversarial(a.Data(), rng)
			adversarial(b.Data(), rng)
			runKernelModes(t, label+"/adversarial", func() *tensor.Tensor { return site.Run(a, b, nil) })
			checkNeurons(t, label+"/adversarial", site, &Operands{In: a, W: b, Out: site.Run(a, b, nil)})
		}
	}
}

// TestKernelTileCounting checks that every forward accounts at least one tile
// and that forced bands multiply the count — the counter feeding the
// telemetry Kernels block.
func TestKernelTileCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := NewConv2D("c", 3, 3, 16, 32, 1, 1, numerics.MustCodec(numerics.FP16, 0)).InitRandom(rng, 1)
	x := tensor.New(1, 24, 24, 16)
	x.RandNormal(rng, 1)

	base := TileCount()
	l.Forward(x, nil)
	serial := TileCount() - base
	if serial < 1 {
		t.Fatalf("serial forward executed %d tiles, want >= 1", serial)
	}
	forceKernelWorkers.Store(4)
	defer forceKernelWorkers.Store(0)
	base = TileCount()
	l.Forward(x, nil)
	if banded := TileCount() - base; banded < 4 {
		t.Errorf("4-band forward executed %d tiles, want >= 4", banded)
	}
}
