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
// precision — run their AVX2 lanes on this machine (and the FP16 panel its
// AVX-512 body, which numerics selects only under it). The kernel tests turn
// it off to hold the pure-Go loops to the same reference.
//
//go:linkname numericsHasAVX2 fidelity/internal/numerics.hasAVX2
var numericsHasAVX2 bool

// numericsHasAVX512 is the second seam: true when the FP16 panel's blocks of
// 16 columns or more run its AVX-512 body. The tests that reach the panel
// turn it off on such a CPU to hold the AVX2 body, the one every AVX2-only
// CPU runs, to the same reference.
//
//go:linkname numericsHasAVX512 fidelity/internal/numerics.hasAVX512
var numericsHasAVX512 bool

// numericsHasAVX512FP16 is the third: true when the FP16 panel's blocks with
// thresholds and packed weights run its AVX512-FP16 body. The tests turn it
// off on such a CPU to hold the AVX-512 body, the one every other AVX-512
// CPU runs, to the same reference.
//
//go:linkname numericsHasAVX512FP16 fidelity/internal/numerics.hasAVX512FP16
var numericsHasAVX512FP16 bool

// laneLeg is one setting of the three seams.
type laneLeg struct {
	name               string
	avx2, avx512, fp16 bool
}

// laneLegs returns the legs this machine has: the lanes as detected, the
// AVX-512 bodies without the FP16 one where the CPU has AVX512-FP16, the AVX2
// bodies alone where it has AVX-512, and the pure-Go loops. The returned func
// restores the detected setting.
func laneLegs() ([]laneLeg, func()) {
	detected := laneLeg{"detected", numericsHasAVX2, numericsHasAVX512, numericsHasAVX512FP16}
	legs := []laneLeg{detected}
	if detected.fp16 {
		legs = append(legs, laneLeg{"avx512", true, true, false})
	}
	if detected.avx512 {
		legs = append(legs, laneLeg{"avx2", true, false, false})
	}
	if detected.avx2 {
		legs = append(legs, laneLeg{"go", false, false, false})
	}
	return legs, detected.set
}

func (l laneLeg) set() {
	numericsHasAVX2, numericsHasAVX512, numericsHasAVX512FP16 = l.avx2, l.avx512, l.fp16
}

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

// runKernelModes evaluates f once per kernel configuration — the reference
// loops, then the tiled kernels on every leg of laneLegs (the "go" one is a
// lanes-off leg for every codec: the FP16 panel, the float32 panel of INT8 /
// INT16 / FP32 and the quantizers' rounding all hang on the one seam) — and
// requires every output to be bit-identical to the reference.
func runKernelModes(t *testing.T, label string, f func() *tensor.Tensor) {
	t.Helper()
	type mode struct {
		name  string
		ref   bool
		lanes laneLeg
	}
	legs, restore := laneLegs()
	defer restore()
	modes := []mode{{"reference", true, legs[0]}}
	for _, l := range legs {
		modes = append(modes, mode{"tiled-" + l.name, false, l})
	}
	var want *tensor.Tensor
	for _, m := range modes {
		SetReferenceKernels(m.ref)
		m.lanes.set()
		got := f()
		SetReferenceKernels(false)
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
// 1×1, depthwise, and two of a few hundred thousand MACs — across every
// codec.
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
		{"large", 3, 3, 16, 32, 1, 1, 24, 24, false},
		{"depthwise-large", 3, 3, 48, 48, 1, 1, 32, 32, true},
		// mobilenet-lite's depthwise layers: one 8-, 16- and 32-column
		// block of the run lanes, every edge pixel padded.
		{"mobilenet-ds1", 3, 3, 8, 8, 1, 1, 8, 8, true},
		{"mobilenet-ds2", 3, 3, 16, 16, 2, 1, 8, 8, true},
		{"mobilenet-ds3", 3, 3, 32, 32, 1, 1, 4, 4, true},
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
			x := tensor.New(1, g.h, g.w, g.inC)
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

// TestDepthwiseHalfPixels holds FP16 depthwise tiles, whose pixels are one
// lane call that walks the kernel window, adds the bias and saturates, to the
// reference on every leg of laneLegs, and their neurons to ComputeNeuron and
// to the tile (checkComputeNeurons): mobilenet-lite's three shapes, whose
// edge pixels read two kernel rows or columns (at stride 2 only the top and
// left ones), with and without a bias; plain, with one +Inf input in a
// corner, on an edge and inside (the block of each pixel that reads it is
// refused and the Go loop computes it: Inf, or NaN against a zero weight),
// and with biases of ±60000, which take sums past HalfMax for the clip.
func TestDepthwiseHalfPixels(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	for _, s := range []struct{ hw, c, stride int }{{8, 8, 1}, {8, 16, 2}, {4, 32, 1}} {
		for _, bias := range []bool{true, false} {
			for _, variant := range []string{"plain", "inf-corner", "inf-edge", "inf-inside", "past-halfmax"} {
				if variant == "past-halfmax" && !bias {
					continue
				}
				rng := rand.New(rand.NewSource(23))
				l := NewDepthwiseConv2D("dw", 3, 3, s.c, s.stride, 1, codec).InitRandom(rng, 1)
				if !bias {
					l.B = nil
				}
				x := tensor.New(1, s.hw, s.hw, s.c)
				x.RandNormal(rng, 1)
				pixel := map[string]int{"inf-corner": 0, "inf-edge": 2, "inf-inside": s.hw + 2}
				if p, ok := pixel[variant]; ok {
					x.Data()[p*s.c+rng.Intn(s.c)] = float32(math.Inf(1))
				}
				if variant == "past-halfmax" {
					for c, b := range l.B.Data() {
						l.B.Data()[c] = []float32{60000, -60000}[c%2] + b
					}
				}
				label := fmt.Sprintf("depthwise FP16 %dx%dx%d s%d bias=%v %s", s.hw, s.hw, s.c, s.stride, bias, variant)
				runKernelModes(t, label, func() *tensor.Tensor { return l.Forward(x, nil) })
				checkComputeNeurons(t, label, rng, l, &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)})
			}
		}
	}
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

// TestDenseKernelEquivalence covers small and large dense layers across every
// codec, including a no-bias variant over a batch of rows.
func TestDenseKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name    string
		in, out int
		batch   int
		bias    bool
	}{
		{"small", 7, 5, 1, true},
		{"no-bias", 16, 9, 3, false},
		{"large", 512, 300, 1, true},
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
// convolution over the rounded input rin of one h×w map, padding left out.
func convVisits(l *Conv2D, rin []float32, h, w int, visit func(a float32, row int)) {
	oh, ow := l.outHW(h, w)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					iy, ix := oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad
					if iy < 0 || iy >= h || ix < 0 || ix >= w {
						continue
					}
					for ic := 0; ic < l.InC; ic++ {
						visit(rin[(iy*w+ix)*l.InC+ic], (ky*l.KW+kx)*l.InC+ic)
					}
				}
			}
		}
	}
}

// TestMatMulKernelEquivalence covers plain and transposed-B matmuls with and
// without output scaling, including a 64×64×64 product.
func TestMatMulKernelEquivalence(t *testing.T) {
	geoms := []struct {
		name       string
		m, k, n    int
		transposeB bool
		scale      float32
	}{
		{"plain", 5, 7, 6, false, 0},
		{"transposed-scaled", 6, 8, 5, true, 0.125},
		{"large", 64, 64, 64, false, 0},
		{"large-T", 64, 64, 64, true, 0.5},
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

// TestKernelTileCounting checks that a conv, dense and matmul forward of one
// image each account exactly one tile, whatever GOMAXPROCS is — the counter
// feeding the telemetry Kernels block.
func TestKernelTileCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	codec := numerics.MustCodec(numerics.FP16, 0)
	conv := NewConv2D("c", 3, 3, 16, 32, 1, 1, codec).InitRandom(rng, 1)
	dense := NewDense("d", 512, 300, codec).InitRandom(rng, 1)
	mm := NewMatMulSite("mm", true, 0, codec)
	x, v, a := tensor.New(1, 24, 24, 16), tensor.New(1, 512), tensor.New(64, 64)
	for _, in := range []*tensor.Tensor{x, v, a} {
		in.RandNormal(rng, 1)
	}
	for _, f := range []struct {
		name    string
		forward func()
	}{
		{"conv", func() { conv.Forward(x, nil) }},
		{"dense", func() { dense.Forward(v, nil) }},
		{"matmul", func() { mm.Run(a, a, nil) }},
	} {
		base := TileCount()
		f.forward()
		if tiles := TileCount() - base; tiles != 1 {
			t.Errorf("%s forward executed %d tiles, want 1", f.name, tiles)
		}
	}
}
