package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// overrideValues are the faulty values a bit flip can leave in an operand
// that separate a fused kernel from the definition if anything does: both
// zeros (a skipped row), the subnormal and underflow bands, the largest half
// and what rounds past it, and the values the lanes hand back to the Go loop.
var overrideValues = []float32{
	0, float32(math.Copysign(0, -1)), 1.5, -0.37, 3e-6, 2.9802322e-08, 1e-40, 65504, -70000,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// checkComputeNeurons holds site.ComputeNeurons to ComputeNeuron, neuron by
// neuron and bit for bit, over the sets a campaign hands it and a few nothing
// hands it — for no override and for an override of every operand kind drawn
// from overrideValues: the target's whole reuse set, that set shuffled (runs
// of one, in no order), a random sample of the output with repeats, one
// channel of it, every channel of one position (a run as wide as the layer),
// and one neuron; on every leg of laneLegs. A depthwise layer's neurons, which
// an FP16 tile finishes in its lane call and ComputeNeurons in finishNeuron,
// are held to the tile's op.Out as well where nothing is overridden.
func checkComputeNeurons(t *testing.T, label string, rng *rand.Rand, site Site, op *Operands) {
	t.Helper()
	dw, _ := site.(*Conv2D)
	tile := dw != nil && dw.Depthwise && op.W == dw.W
	legs, restore := laneLegs()
	defer restore()
	outSize := op.Out.Size()
	lastDim := op.Out.Dim(op.Out.Rank() - 1)
	sample := func(n int, channel int) []int {
		set := make([]int, n)
		for i := range set {
			flat := rng.Intn(outSize)
			if channel >= 0 {
				flat = flat/lastDim*lastDim + channel
			}
			set[i] = flat
		}
		return set
	}
	kinds := []OperandKind{OperandInput, OperandWeight}
	if op.B != nil {
		kinds = append(kinds, OperandBias)
	}
	for trial := 0; trial < 8; trial++ {
		var ov *Override
		position := sample(1, 0)
		for c := 1; c < lastDim; c++ {
			position = append(position, position[0]+c)
		}
		sets := map[string][]int{
			"sample":       sample(40, -1),
			"one-channel":  sample(12, rng.Intn(lastDim)),
			"one-position": position,
			"one-neuron":   sample(1, -1),
			"empty":        nil,
		}
		if trial > 0 {
			kind := kinds[rng.Intn(len(kinds))]
			operand := map[OperandKind]*tensor.Tensor{OperandInput: op.In, OperandWeight: op.W, OperandBias: op.B}[kind]
			ov = &Override{Kind: kind, Flat: rng.Intn(operand.Size()), Value: overrideValues[rng.Intn(len(overrideValues))]}
			reuse := site.NeuronsUsingOperand(op, kind, ov.Flat, nil)
			if len(reuse) > 600 { // a weight of a large map: a window of its users
				lo := rng.Intn(len(reuse) - 600)
				reuse = reuse[lo : lo+600]
			}
			sets["reuse"] = reuse
			shuffled := append([]int(nil), reuse...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			sets["reuse-shuffled"] = shuffled
		}
		for name, set := range sets {
			for _, l := range legs {
				l.set()
				got := make([]float32, len(set))
				site.ComputeNeurons(op, set, ov, got)
				for i, off := range set {
					if want := site.ComputeNeuron(op, off, ov); !sameValue(got[i], want) {
						t.Fatalf("%s: %s set, override %+v, lanes %s: ComputeNeurons[%d] (neuron %d) = %v [%#08x], ComputeNeuron %v [%#08x]",
							label, name, ov, l.name, i, off, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
					}
					if want := op.Out.Data()[off]; tile && ov == nil && !sameValue(got[i], want) {
						t.Fatalf("%s: %s set, lanes %s: ComputeNeurons[%d] (neuron %d) = %v [%#08x], the tile %v [%#08x]",
							label, name, l.name, i, off, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestComputeNeuronsMatchesComputeNeuron generates convolution, dense and
// matmul sites — stride 1 and 2, padding 0 to 2 (past a 1×1 kernel: neurons
// that read nothing), kernels 1, 3 and 5, channel counts below, at and off
// the lane width, depthwise (and mobilenet-lite's three depthwise layers:
// the 8-, 16- and 32-column blocks of the run lanes), with and without bias,
// both matmul layouts, at every precision — with adversarial stored
// activations (zeros, Inf and NaN already in the input, so the lanes bail
// mid-row) under finite and non-finite weights, and holds the batch recompute
// to the per-neuron definition.
func TestComputeNeuronsMatchesComputeNeuron(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	channels := [][2]int{{3, 5}, {8, 8}, {5, 20}, {16, 16}, {4, 1}}
	for _, codec := range kernelCodecs() {
		float := codec.Precision() == numerics.FP32 || codec.Precision() == numerics.FP16
		for trial := 0; trial < 36; trial++ {
			k := []int{1, 3, 5}[trial%3]
			stride, pad := 1+trial/3%2, trial/6%3
			ch := channels[rng.Intn(len(channels))]
			var l *Conv2D
			if trial%9 == 8 {
				k = []int{1, 3, 5}[trial/9%3]
				l = NewDepthwiseConv2D("c", k, k, ch[1], stride, pad, codec)
				l.W.RandNormal(rng, 1)
				l.B.RandNormal(rng, 0.25)
			} else {
				l = NewConv2D("c", k, k, ch[0], ch[1], stride, pad, codec).InitRandom(rng, 1)
			}
			if trial%2 == 1 {
				l.B = nil
			}
			if float && trial%4 == 3 {
				plantWeights("nonfinite", l.W, rng)
			}
			l.InvalidateWeights()
			x := tensor.New(1, 5+rng.Intn(4), 5+rng.Intn(4), l.InC)
			x.RandNormal(rng, 1)
			adversarial(x.Data(), rng)
			label := fmt.Sprintf("conv %s k%d s%d p%d %d->%d depthwise=%v bias=%v",
				codec.Precision(), k, stride, pad, l.InC, l.OutC, l.Depthwise, l.B != nil)
			checkComputeNeurons(t, label, rng, l, &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)})
		}

		// Plain operands as well: an adversarial window of 3×3×32 inputs
		// holds a non-finite value almost always, and a block that meets one
		// is the Go loop's.
		for _, s := range []struct{ hw, c, stride int }{{8, 8, 1}, {8, 16, 2}, {4, 32, 1}} {
			for _, variant := range []string{"plain", "adversarial", "nonfinite"} {
				if variant == "nonfinite" && !float {
					continue
				}
				l := NewDepthwiseConv2D("dw", 3, 3, s.c, s.stride, 1, codec).InitRandom(rng, 1)
				if variant == "nonfinite" {
					plantWeights("nonfinite", l.W, rng)
					l.InvalidateWeights()
				}
				x := tensor.New(1, s.hw, s.hw, s.c)
				x.RandNormal(rng, 1)
				if variant == "adversarial" {
					adversarial(x.Data(), rng)
				}
				label := fmt.Sprintf("mobilenet depthwise %s %dx%dx%d s%d %s",
					codec.Precision(), s.hw, s.hw, s.c, s.stride, variant)
				checkComputeNeurons(t, label, rng, l, &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)})
			}
		}

		for _, g := range [][2]int{{5, 3}, {32, 8}, {70, 20}, {9, 16}} {
			for _, bias := range []bool{true, false} {
				l := NewDense("d", g[0], g[1], codec).InitRandom(rng, 1)
				if !bias {
					l.B = nil
				}
				if float && bias {
					plantWeights("nonfinite", l.W, rng)
					l.InvalidateWeights()
				}
				x := tensor.New(3, g[0])
				x.RandNormal(rng, 1)
				adversarial(x.Data(), rng)
				op := &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)}
				label := fmt.Sprintf("dense %s %d->%d bias=%v", codec.Precision(), g[0], g[1], bias)
				checkComputeNeurons(t, label, rng, l, op)
				// Weights that are not the layer's own (a corrupted clone, as
				// ApplyMemory hands over) have no rounded cache to read.
				op.W = l.W.Clone()
				op.W.Data()[rng.Intn(op.W.Size())] = 3
				checkComputeNeurons(t, label+" foreign weights", rng, l, op)
			}
		}

		for _, g := range [][3]int{{4, 3, 5}, {3, 8, 8}, {5, 17, 20}} {
			for _, transposeB := range []bool{false, true} {
				l := NewMatMulSite("m", transposeB, []float32{0, 0.25}[g[1]%2], codec)
				a, b := tensor.New(g[0], g[1]), tensor.New(g[1], g[2])
				if transposeB {
					b = tensor.New(g[2], g[1])
				}
				a.RandNormal(rng, 1)
				b.RandNormal(rng, 1)
				adversarial(a.Data(), rng)
				adversarial(b.Data(), rng)
				label := fmt.Sprintf("matmul %s %dx%dx%d transposeB=%v", codec.Precision(), g[0], g[1], g[2], transposeB)
				checkComputeNeurons(t, label, rng, l, &Operands{In: a, W: b, Out: l.Run(a, b, nil)})
			}
		}
	}
}

// TestComputeNeuronsConcurrent recomputes different reuse sets of one shared
// layer from several goroutines at once, as campaign shards do: the pooled
// scratch must never be shared between two calls in flight (run under -race).
func TestComputeNeuronsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	codec := numerics.MustCodec(numerics.FP16, 0)
	l := NewConv2D("c", 3, 3, 8, 16, 1, 1, codec).InitRandom(rng, 0.3)
	x := tensor.New(1, 8, 8, 8)
	x.RandNormal(rng, 1)
	op := &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)}
	type job struct {
		ov   *Override
		set  []int
		want []float32
	}
	jobs := make([]job, 16)
	for i := range jobs {
		kind, operand := OperandInput, op.In
		if i%2 == 1 {
			kind, operand = OperandWeight, op.W
		}
		ov := &Override{Kind: kind, Flat: rng.Intn(operand.Size()), Value: float32(rng.NormFloat64() * 8)}
		set := l.NeuronsUsingOperand(op, kind, ov.Flat, nil)
		want := make([]float32, len(set))
		computeEach(l, op, set, ov, want)
		jobs[i] = job{ov, set, want}
	}
	done := make(chan error, len(jobs)) // one send per job
	for _, j := range jobs {
		go func(j job) {
			for rep := 0; rep < 20; rep++ {
				got := make([]float32, len(j.set))
				l.ComputeNeurons(op, j.set, j.ov, got)
				for i := range got {
					if !sameValue(got[i], j.want[i]) {
						done <- fmt.Errorf("override %+v: neuron %v = %v, want %v", j.ov, j.set[i], got[i], j.want[i])
						return
					}
				}
			}
			done <- nil
		}(j)
	}
	for range jobs {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestNeuronsUsingOperandExact holds every reuse set to its definition: the
// output neurons that move when the operand element moves. On FP32 operands
// bounded away from zero a +10 perturbation of an element moves every neuron
// that reads it by at least 10 and leaves every other bit of the output alone,
// so for every element of every operand the set must be ascending and equal
// DiffIndices of the forward pass over the perturbed operand — for strided,
// padded and depthwise convolutions (a stride past the kernel leaves inputs
// that nothing reads: empty sets), a dense layer and both matmul layouts. One
// set is wider by design: a weight of a padded convolution reaches its whole
// output channel, the neurons whose window puts a padding zero under it
// included (the weight sits in its register while the zero streams past), so
// there the moved neurons must lie inside that channel, which is the set.
func TestNeuronsUsingOperandExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	codec := fp32Codec()
	random := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		for i := range x.Data() {
			x.Data()[i] = float32((1 + rng.Float64()) * float64(1-2*rng.Intn(2)))
		}
		return x
	}
	check := func(label string, site Site, op *Operands, padded bool, forward func() *tensor.Tensor, invalidate func()) {
		t.Helper()
		golden := forward()
		op.Out = golden
		kinds := []OperandKind{OperandInput, OperandWeight, OperandBias}
		var set []int
		for i, operand := range []*tensor.Tensor{op.In, op.W, op.B} {
			if operand == nil {
				continue
			}
			d := operand.Data()
			for flat, v := range d {
				d[flat] = v + 10
				invalidate()
				want := golden.DiffIndices(forward(), 0)
				d[flat] = v
				invalidate()
				if padded && kinds[i] == OperandWeight {
					outC := golden.Dim(3)
					channel := appendStrided(nil, flat%outC, outC, golden.Size()/outC)
					for _, off := range want {
						if _, in := slices.BinarySearch(channel, off); !in {
							t.Fatalf("%s: weight %d moves neuron %d outside its channel", label, flat, off)
						}
					}
					want = channel
				}
				set = site.NeuronsUsingOperand(op, kinds[i], flat, set[:0])
				if !slices.IsSorted(set) || !slices.Equal(set, want) {
					t.Fatalf("%s: %v %d: reuse set %v, want %v", label, kinds[i], flat, set, want)
				}
			}
		}
	}
	for _, g := range []struct {
		name                   string
		h, w, k, c, outC, s, p int
		depthwise              bool
	}{
		{"strided padded", 7, 6, 3, 3, 4, 2, 1, false},
		{"stride past the kernel", 7, 8, 2, 2, 3, 3, 0, false},
		{"depthwise padded", 5, 5, 3, 4, 4, 1, 1, true},
	} {
		l := NewConv2D("c", g.k, g.k, g.c, g.outC, g.s, g.p, codec)
		if g.depthwise {
			l = NewDepthwiseConv2D("c", g.k, g.k, g.c, g.s, g.p, codec)
		}
		l.W, l.B = random(l.W.Shape()...), random(g.outC)
		x := random(1, g.h, g.w, g.c)
		check("conv "+g.name, l, &Operands{In: x, W: l.W, B: l.B}, g.p > 0,
			func() *tensor.Tensor { return l.Forward(x, nil) }, l.InvalidateWeights)
	}
	d := NewDense("d", 7, 5, codec)
	d.W, d.B = random(7, 5), random(5)
	dx := random(3, 7)
	check("dense", d, &Operands{In: dx, W: d.W, B: d.B}, false,
		func() *tensor.Tensor { return d.Forward(dx, nil) }, d.InvalidateWeights)
	for _, transposeB := range []bool{false, true} {
		m := NewMatMulSite("m", transposeB, 0, codec)
		a, b := random(4, 6), random(6, 5)
		if transposeB {
			b = random(5, 6)
		}
		check(fmt.Sprintf("matmul transposeB=%v", transposeB), m, &Operands{In: a, W: b}, false,
			func() *tensor.Tensor { return m.Run(a, b, nil) }, func() {})
	}
}

// TestNeuronsUsingOperandAllocs pins the reuse-set enumeration at zero
// allocations into a warm buffer, whatever the set's size: it runs once per
// datapath fault, ahead of the recompute.
func TestNeuronsUsingOperandAllocs(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	conv := NewConv2D("c", 3, 3, 4, 16, 1, 1, codec)
	x := tensor.New(1, 12, 12, 4)
	dense := NewDense("d", 32, 24, codec)
	dx := tensor.New(3, 32)
	mm := NewMatMulSite("m", true, 0, codec)
	a, b := tensor.New(9, 8), tensor.New(11, 8)
	for _, tc := range []struct {
		name string
		site Site
		op   *Operands
		kind OperandKind
		flat int
		want int // neurons in the set
	}{
		{"conv input", conv, &Operands{In: x, W: conv.W, B: conv.B, Out: conv.Forward(x, nil)}, OperandInput, (5*12+5)*4 + 1, 9 * 16},
		{"conv weight", conv, &Operands{In: x, W: conv.W, B: conv.B, Out: conv.Forward(x, nil)}, OperandWeight, 77, 144},
		{"conv bias", conv, &Operands{In: x, W: conv.W, B: conv.B, Out: conv.Forward(x, nil)}, OperandBias, 5, 144},
		{"dense input", dense, &Operands{In: dx, W: dense.W, B: dense.B, Out: dense.Forward(dx, nil)}, OperandInput, 40, 24},
		{"dense weight", dense, &Operands{In: dx, W: dense.W, B: dense.B, Out: dense.Forward(dx, nil)}, OperandWeight, 100, 3},
		{"matmul A", mm, &Operands{In: a, W: b, Out: mm.Run(a, b, nil)}, OperandInput, 20, 11},
		{"matmul B", mm, &Operands{In: a, W: b, Out: mm.Run(a, b, nil)}, OperandWeight, 20, 9},
	} {
		set := tc.site.NeuronsUsingOperand(tc.op, tc.kind, tc.flat, nil)
		allocs := testing.AllocsPerRun(20, func() { set = tc.site.NeuronsUsingOperand(tc.op, tc.kind, tc.flat, set[:0]) })
		if len(set) != tc.want || allocs != 0 {
			t.Errorf("%s: %d neurons in %v allocations, want %d in 0", tc.name, len(set), allocs, tc.want)
		}
	}
}
