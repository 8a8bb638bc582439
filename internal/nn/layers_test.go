package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

func TestActivations(t *testing.T) {
	c := fp32Codec()
	x := tensor.FromSlice([]float32{-2, -0.5, 0, 0.5, 2, 8}, 6)

	relu := NewReLU("r", c).Forward(x, nil)
	wantRelu := []float32{0, 0, 0, 0.5, 2, 8}
	for i, w := range wantRelu {
		if relu.At(i) != w {
			t.Errorf("relu[%d] = %v, want %v", i, relu.At(i), w)
		}
	}

	leaky := NewLeakyReLU("l", 0.1, c).Forward(x, nil)
	if leaky.At(0) != -0.2 || leaky.At(4) != 2 {
		t.Errorf("leaky = %v", leaky.Data())
	}

	r6 := NewRelu6("r6", c).Forward(x, nil)
	if r6.At(5) != 6 || r6.At(0) != 0 || r6.At(4) != 2 {
		t.Errorf("relu6 = %v", r6.Data())
	}
}

func TestSoftmaxLayer(t *testing.T) {
	s := NewSoftmax("sm")
	y := s.Forward(tensor.FromSlice([]float32{0, 1, 2}, 1, 3), nil)
	var sum float32
	for _, v := range y.Data() {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("softmax sums to %v", sum)
	}
}

func TestMaxPool(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4, 1)
	y := NewMaxPool("p", 2, 2).Forward(x, nil)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Errorf("maxpool[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
}

// Max pooling masks non-maximal perturbations — the masking property the
// paper's outcome statistics depend on.
func TestMaxPoolMasksSmallFaults(t *testing.T) {
	x := tensor.New(1, 2, 2, 1)
	x.Set(10, 0, 0, 0, 0)
	x.Set(1, 0, 0, 1, 0)
	p := NewMaxPool("p", 2, 2)
	golden := p.Forward(x, nil)
	x.Set(5, 0, 0, 1, 0) // fault below the max: masked
	if !p.Forward(x, nil).Equal(golden) {
		t.Error("sub-max fault should be masked by max pooling")
	}
	x.Set(50, 0, 0, 1, 0) // fault above the max: propagates
	if p.Forward(x, nil).Equal(golden) {
		t.Error("super-max fault should propagate")
	}
}

// TestImageLayersRejectBatches: Conv2D and the pools compute one image, and
// a batch of two panics with a message naming the layer.
func TestImageLayersRejectBatches(t *testing.T) {
	c := fp32Codec()
	x := tensor.New(2, 4, 4, 2)
	for _, l := range []Layer{NewConv2D("conv", 3, 3, 2, 2, 1, 1, c), NewMaxPool("maxpool", 2, 2), NewGlobalAvgPool("avgpool", c)} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, l.Name()) {
					t.Errorf("%s over %v: panic %q, want one naming the layer", l.Name(), x.Shape(), msg)
				}
			}()
			l.Forward(x, nil)
		}()
	}
}

func TestGlobalAvgPool(t *testing.T) {
	c := fp32Codec()
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	g := NewGlobalAvgPool("g", c).Forward(x, nil)
	if g.At(0, 0) != 2.5 {
		t.Errorf("global avgpool = %v", g.Data())
	}
}

// TestPoolRegionsMatchNaive holds maxPoolRegion — whole output and a box
// inside it written over a filled tensor — to the loop it stands for, one
// output element at a time: the window in (py, px) order under `v > max` (a
// NaN never becomes the maximum, and a window of nothing but NaNs pools to
// -Inf). Channel counts run below, at and past numerics.MaxRow's lane width;
// the inputs carry both zeros, NaN and both infinities; the lanes run as
// detected and off.
func TestPoolRegionsMatchNaive(t *testing.T) {
	detected := numericsHasAVX2
	defer func() { numericsHasAVX2 = detected }()
	rng := rand.New(rand.NewSource(45))
	for _, g := range []struct{ size, stride, h, w int }{{2, 2, 8, 6}, {3, 1, 7, 7}, {3, 2, 9, 11}, {1, 1, 3, 4}} {
		for _, c := range []int{1, 3, 8, 12, 16, 21} {
			x := tensor.New(1, g.h, g.w, c)
			x.RandNormal(rng, 3)
			adversarial(x.Data(), rng)
			for i := 0; i < g.size*c; i++ { // in every channel, a window of nothing but NaNs
				for py := 0; py < g.size; py++ {
					x.Data()[py*g.w*c+i] = float32(math.NaN())
				}
			}
			oh, ow := (g.h-g.size)/g.stride+1, (g.w-g.size)/g.stride+1
			naive := func(b, y, xx, ch int) float32 {
				m := float32(math.Inf(-1))
				for py := 0; py < g.size; py++ {
					for px := 0; px < g.size; px++ {
						if v := x.At(b, y*g.stride+py, xx*g.stride+px, ch); v > m {
							m = v
						}
					}
				}
				return m
			}
			for _, lanes := range []bool{detected, false} {
				numericsHasAVX2 = lanes
				for _, bx := range [][4]int{{0, oh, 0, ow}, {1, oh - 1, 1, ow}} {
					out := tensor.New(1, oh, ow, c)
					out.Fill(7)
					maxPoolRegion(x, out, g.size, g.stride, bx[0], bx[1], bx[2], bx[3])
					for i, got := range out.Data() {
						idx := out.Unflatten(i)
						want := float32(7)
						if idx[1] >= bx[0] && idx[1] < bx[1] && idx[2] >= bx[2] && idx[2] < bx[3] {
							want = naive(idx[0], idx[1], idx[2], idx[3])
						}
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("pool %d/%d over %dx%dx%d, box %v, lanes %v: out%v = %v [%#08x], naive %v [%#08x]",
								g.size, g.stride, g.h, g.w, c, bx, lanes, idx, got, math.Float32bits(got), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

func TestResidualIdentity(t *testing.T) {
	c := fp32Codec()
	l := NewConv2D("c", 1, 1, 1, 1, 1, 0, c)
	l.W.Set(2, 0, 0, 0, 0) // doubles input
	r := NewResidual("res", l, nil, c)
	x := tensor.FromSlice([]float32{1, 3}, 1, 1, 2, 1)
	y := r.Forward(x, nil)
	if y.At(0, 0, 0, 0) != 3 || y.At(0, 0, 1, 0) != 9 {
		t.Errorf("residual = %v", y.Data())
	}
}

func TestResidualProjectionShortcut(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(1))
	body := NewConv2D("b", 1, 1, 2, 4, 1, 0, c).InitRandom(rng, 1)
	short := NewConv2D("s", 1, 1, 2, 4, 1, 0, c).InitRandom(rng, 1)
	r := NewResidual("res", body, short, c)
	x := tensor.New(1, 2, 2, 2)
	x.RandNormal(rng, 1)
	y := r.Forward(x, nil)
	ref := tensor.Add(body.Forward(x, nil), short.Forward(x, nil))
	if diffs := y.DiffIndices(ref, 1e-5); len(diffs) != 0 {
		t.Error("projection residual mismatch")
	}
}

func TestBranchesConcat(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(2))
	p1 := NewConv2D("p1", 1, 1, 2, 3, 1, 0, c).InitRandom(rng, 1)
	p2 := NewConv2D("p2", 1, 1, 2, 5, 1, 0, c).InitRandom(rng, 1)
	br := NewBranches("inc", 3, p1, p2)
	x := tensor.New(1, 2, 2, 2)
	x.RandNormal(rng, 1)
	y := br.Forward(x, nil)
	if y.Dim(3) != 8 {
		t.Fatalf("concat channels = %d, want 8", y.Dim(3))
	}
}

func TestBatchNorm(t *testing.T) {
	c := fp32Codec()
	bn := NewBatchNorm("bn", 2, c)
	bn.Scale.Set(2, 0)
	bn.Shift.Set(1, 1)
	x := tensor.FromSlice([]float32{3, 4}, 1, 1, 1, 2)
	y := bn.Forward(x, nil)
	if y.At(0, 0, 0, 0) != 6 || y.At(0, 0, 0, 1) != 5 {
		t.Errorf("batchnorm = %v", y.Data())
	}
}

func TestLayerNorm(t *testing.T) {
	ln := NewLayerNorm("ln", 4)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	y := ln.Forward(x, nil)
	var mean, variance float64
	for _, v := range y.Data() {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range y.Data() {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
		t.Errorf("layernorm mean=%v var=%v", mean, variance)
	}
}

func TestSequentialComposition(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D("c", 3, 3, 1, 2, 1, 1, c).InitRandom(rng, 1)
	seq := NewSequential("net", conv, NewReLU("r", c), NewMaxPool("p", 2, 2))
	x := tensor.New(1, 4, 4, 1)
	x.RandNormal(rng, 1)
	y := seq.Forward(x, nil)
	if y.Dim(1) != 2 || y.Dim(2) != 2 || y.Dim(3) != 2 {
		t.Fatalf("sequential shape = %v", y.Shape())
	}
	for _, v := range y.Data() {
		if v < 0 {
			t.Error("relu output must be non-negative")
		}
	}
}

func TestMultiHeadAttention(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(4))
	mha := NewMultiHeadAttention("attn", 8, 2, c).InitRandom(rng, 0.3)
	x := tensor.New(5, 8)
	x.RandNormal(rng, 1)
	y := mha.Forward(x, nil)
	if y.Dim(0) != 5 || y.Dim(1) != 8 {
		t.Fatalf("attention shape = %v", y.Shape())
	}
	// Deterministic.
	if !mha.Forward(x, nil).Equal(y) {
		t.Error("attention must be deterministic")
	}
}

func TestAttentionSiteEnumeration(t *testing.T) {
	c := fp32Codec()
	mha := NewMultiHeadAttention("attn", 8, 2, c)
	sites := Sites(mha)
	// 4 Dense + 2 MatMul sites.
	if len(sites) != 6 {
		t.Fatalf("attention sites = %d, want 6", len(sites))
	}
	kinds := map[Kind]int{}
	for _, s := range sites {
		kinds[s.Kind()]++
	}
	if kinds[KindFC] != 4 || kinds[KindMatMul] != 2 {
		t.Errorf("site kinds = %v", kinds)
	}
}

func TestLSTMForward(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM("lstm", 3, 4, c).InitRandom(rng, 0.5)
	x := tensor.New(6, 3)
	x.RandNormal(rng, 1)
	y := l.Forward(x, nil)
	if y.Dim(0) != 1 || y.Dim(1) != 4 {
		t.Fatalf("lstm shape = %v", y.Shape())
	}
	for _, v := range y.Data() {
		if v < -1 || v > 1 {
			t.Errorf("lstm hidden %v outside tanh range", v)
		}
	}
	// The gate Dense fires once per timestep.
	count := 0
	l.Forward(x, NewContext(func(site Layer, visit int, op *Operands) {
		if visit != count {
			t.Errorf("visit = %d, want %d", visit, count)
		}
		count++
	}))
	if count != 6 {
		t.Errorf("gate executions = %d, want 6", count)
	}
}

func TestHookFiresWithOperands(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D("c", 3, 3, 1, 2, 1, 1, c).InitRandom(rng, 1)
	x := tensor.New(1, 4, 4, 1)
	x.RandNormal(rng, 1)
	fired := false
	conv.Forward(x, NewContext(func(site Layer, visit int, op *Operands) {
		fired = true
		if site != Layer(conv) {
			t.Error("hook site mismatch")
		}
		if op.In != x || op.W != conv.W || op.Out == nil {
			t.Error("hook operands incomplete")
		}
		// Patch the output; the caller must observe the patch.
		op.Out.Data()[0] = 12345
	}))
	if !fired {
		t.Fatal("hook did not fire")
	}
	y := conv.Forward(x, NewContext(func(site Layer, visit int, op *Operands) {
		op.Out.Data()[0] = 12345
	}))
	if y.Data()[0] != 12345 {
		t.Error("output patch not visible to caller")
	}
}

func TestNetworkTraceAndSites(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(7))
	conv := NewConv2D("conv1", 3, 3, 1, 4, 1, 1, c).InitRandom(rng, 0.5)
	fcl := NewDense("fc1", 4*4*4, 10, c).InitRandom(rng, 0.2)
	net := NewNetwork("tiny", NewSequential("tiny",
		conv, NewReLU("r1", c), fcl,
	), c)
	if sites := Sites(net.Root); len(sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(sites))
	}
	if _, err := net.SiteByName("conv1"); err != nil {
		t.Error(err)
	}
	if _, err := net.SiteByName("nope"); err == nil {
		t.Error("missing site should error")
	}
	x := tensor.New(1, 4, 4, 1)
	x.RandNormal(rng, 1)
	out, execs := net.Trace(x)
	if out.Dim(1) != 10 {
		t.Fatalf("trace output shape = %v", out.Shape())
	}
	if len(execs) != 2 {
		t.Fatalf("trace execs = %d, want 2", len(execs))
	}
	if execs[0].Site.Name() != "conv1" || execs[1].Site.Name() != "fc1" {
		t.Errorf("exec order: %s, %s", execs[0].Site.Name(), execs[1].Site.Name())
	}
	if execs[0].OutSize != 4*4*4 || execs[1].OutSize != 10 {
		t.Errorf("exec sizes: %d, %d", execs[0].OutSize, execs[1].OutSize)
	}
}

func TestQuantizedNetworkOutputsRepresentable(t *testing.T) {
	codec := numerics.MustCodec(numerics.INT16, 16)
	rng := rand.New(rand.NewSource(8))
	conv := NewConv2D("c", 3, 3, 1, 2, 1, 1, codec).InitRandom(rng, 0.3)
	x := tensor.New(1, 4, 4, 1)
	x.RandNormal(rng, 1)
	y := conv.Forward(x, nil)
	for _, v := range y.Data() {
		if codec.Round(v) != v {
			t.Fatalf("INT16 conv output %v not representable", v)
		}
	}
}

func TestKindAndOperandStrings(t *testing.T) {
	if KindConv.String() != "Conv" || KindFC.String() != "FC" || KindMatMul.String() != "MatMul" || KindOther.String() != "Other" {
		t.Error("Kind strings wrong")
	}
	if OperandInput.String() != "input" || OperandWeight.String() != "weight" ||
		OperandBias.String() != "bias" || OperandOutput.String() != "output" {
		t.Error("OperandKind strings wrong")
	}
	if OperandKind(9).String() == "" {
		t.Error("unknown operand string empty")
	}
}

func TestClampActivation(t *testing.T) {
	c := fp32Codec()
	cl := NewClamp("cl", 5, c)
	y := cl.Forward(tensor.FromSlice([]float32{-100, -2, 0, 3, 1000}, 5), nil)
	want := []float32{-5, -2, 0, 3, 5}
	for i, w := range want {
		if y.At(i) != w {
			t.Errorf("clamp[%d] = %v, want %v", i, y.At(i), w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive bound should panic")
		}
	}()
	NewClamp("bad", 0, c)
}

// TestElementwiseRegionSweep holds the region sweeps of the elementwise layers
// to their full forward pass: whatever the dirty box — rows and columns of a
// rank-4 image, or rows of a rank-2 tensor whose differences start and end
// inside a row — sweeping it over a copy of the golden output gives the bits
// a forward over the dirty input gives, and the swept box is the dirty box.
func TestElementwiseRegionSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, codec := range kernelCodecs() {
		layers := []interface {
			Layer
			regionSite
		}{NewBatchNorm("bn", 6, codec).InitRandom(rng), NewReLU("relu", codec), NewRelu6("relu6", codec)}
		for _, l := range layers {
			for _, shape := range [][]int{{1, 5, 7, 6}, {5, 6}} {
				x := tensor.New(shape...)
				x.RandNormal(rng, 2)
				golden := l.Forward(x, nil)
				dirty := x.Clone()
				var bx box
				if len(shape) == 4 {
					// Rows 1–3, columns 2–4.
					bx = box{1, 4, 2, 5}
					for y := bx.y0; y < bx.y1; y++ {
						for xx := bx.x0; xx < bx.x1; xx++ {
							dirty.Set(float32(rng.NormFloat64()*3), 0, y, xx, rng.Intn(shape[3]))
						}
					}
				} else {
					// Rows 1–3, dirty from column 2 of row 1 to column 3 of row 3.
					bx = box{1, 4, 0, 1}
					for i := 8; i < 22; i++ {
						dirty.Data()[i] = float32(rng.NormFloat64() * 3)
					}
				}
				want := l.Forward(dirty, nil)
				got, swept, ok := l.forwardRegion(&Context{arena: NewArena()}, dirty, golden, bx)
				if !ok || swept != bx {
					t.Fatalf("%s %v %v: sweep of %+v swept %+v, ok %v", l.Name(), codec.Precision(), shape, bx, swept, ok)
				}
				for i, v := range got.Data() {
					if !sameValue(v, want.Data()[i]) {
						t.Fatalf("%s %v %v: swept[%d] = %v, forward %v", l.Name(), codec.Precision(), shape, i, v, want.Data()[i])
					}
				}
			}
		}
	}
}

// TestRectifierRowsMatchScalar holds the rectifiers' row loops to the scalar
// definitions they replaced, kept here as the oracle, bit for bit: what each
// makes of NaN and of -0 is part of what a fault propagates (ReLU sends both
// to +0, ReLU6 and the clamp pass both through, the leaky rectifier scales
// them), and the min and max builtins would get every one of those wrong. The
// inputs are both zeros, the subnormal ends, both infinities, NaNs of two
// payloads and both signs, each bound and its two neighbours, and 10⁴ random
// values, in rows of every length from 0 to 17, out of place and in place,
// with numerics' AVX2 lanes as detected and off.
func TestRectifierRowsMatchScalar(t *testing.T) {
	detected := numericsHasAVX2
	defer func() { numericsHasAVX2 = detected }()
	for _, lanes := range []bool{detected, false} {
		numericsHasAVX2 = lanes
		testRectifierRowsMatchScalar(t)
	}
}

func testRectifierRowsMatchScalar(t *testing.T) {
	const alpha, bound = 0.1, 2.5
	c := fp32Codec()
	rectifiers := []struct {
		l      *Activation
		scalar func(v float32) float32
	}{
		{NewReLU("relu", c), func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		}},
		{NewLeakyReLU("leaky", alpha, c), func(v float32) float32 {
			if v > 0 {
				return v
			}
			return alpha * v
		}},
		{NewRelu6("relu6", c), func(v float32) float32 {
			switch {
			case v < 0:
				return 0
			case v > 6:
				return 6
			default:
				return v
			}
		}},
		{NewClamp("clamp", bound, c), func(v float32) float32 {
			switch {
			case v > bound:
				return bound
			case v < -bound:
				return -bound
			default:
				return v
			}
		}},
	}
	inf := float32(math.Inf(1))
	vals := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
		inf, -inf, math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xffbfffff),
	}
	for _, b := range []float32{6, bound, -bound} {
		vals = append(vals, b, math.Nextafter32(b, inf), math.Nextafter32(b, -inf))
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 10000; i++ {
		vals = append(vals, float32(rng.NormFloat64()*4))
	}
	for _, r := range rectifiers {
		for lo, n := 0, 0; lo < len(vals); lo, n = lo+n, (n+1)%18 {
			x := vals[lo:min(lo+n, len(vals))]
			out, inPlace := make([]float32, len(x)), append([]float32(nil), x...)
			r.l.row(out, x)
			r.l.row(inPlace, inPlace)
			for i, v := range x {
				want := math.Float32bits(r.scalar(v))
				if math.Float32bits(out[i]) != want || math.Float32bits(inPlace[i]) != want {
					t.Fatalf("%s(%v [%#08x]) in a row of %d (lanes %v) = %#08x (%#08x in place), scalar %#08x", r.l.Name(), v,
						math.Float32bits(v), len(x), numericsHasAVX2, math.Float32bits(out[i]), math.Float32bits(inPlace[i]), want)
				}
			}
		}
	}
	// The semantics themselves, so that oracle and rows cannot drift together.
	nan, negZero := math.Float32frombits(0x7fc00000), float32(math.Copysign(0, -1))
	row1 := func(l *Activation, v float32) float32 {
		out := []float32{v}
		l.row(out, out)
		return out[0]
	}
	for _, tc := range []struct {
		l    *Activation
		in   float32
		want uint32
	}{
		{rectifiers[0].l, nan, 0}, {rectifiers[0].l, negZero, 0},
		{rectifiers[2].l, negZero, 0x80000000}, {rectifiers[3].l, negZero, 0x80000000},
	} {
		if got := math.Float32bits(row1(tc.l, tc.in)); got != tc.want {
			t.Errorf("%s(%#08x) = %#08x, want %#08x", tc.l.Name(), math.Float32bits(tc.in), got, tc.want)
		}
	}
	for _, r := range rectifiers[1:] {
		if got := row1(r.l, nan); got == got {
			t.Errorf("%s(NaN) = %v, want NaN", r.l.Name(), got)
		}
	}
}

// TestResidualMatchesScalarRound holds the residual block's add loop and row
// rounding to Round(body + shortcut) element by element, in every precision,
// over sums that land in every rounding band: in range, past the largest half
// and the quantizers' range, ±Inf, Inf - Inf, and the zeros, with the FP16
// lanes as detected and off.
func TestResidualMatchesScalarRound(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	detected := numericsHasAVX2
	defer func() { numericsHasAVX2 = detected }()
	for _, codec := range kernelCodecs() {
		x := tensor.New(2, 5, 7, 3) // 210 elements: whole chunks and a tail
		x.RandNormal(rng, 4)
		adversarial(x.Data(), rng)
		scale := NewBatchNorm("bn", 3, numerics.MustCodec(numerics.FP32, 0)).InitRandom(rng)
		scale.Scale.Data()[1] = -1 // the body of channel 1 is -x: x + (-x), Inf - Inf
		scale.Shift.Data()[1] = 0
		l := NewResidual("res", scale, nil, codec)
		body := scale.Forward(x, nil)
		for _, lanes := range []bool{detected, false} {
			numericsHasAVX2 = lanes
			got := l.Forward(x, nil)
			for i, v := range x.Data() {
				want := codec.Round(body.Data()[i] + v)
				if !sameValue(got.Data()[i], want) {
					t.Fatalf("%v (lanes %v): residual[%d] = %#08x, Round(%v + %v) = %#08x", codec.Precision(), lanes, i,
						math.Float32bits(got.Data()[i]), body.Data()[i], v, math.Float32bits(want))
				}
			}
		}
	}
}
