package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// reportMACs turns a benchmark's elapsed time into the MAC/s the kernels are
// measured by; ns/op stays what it is, the time of one tile or neuron.
func reportMACs(b *testing.B, macsPerOp int) {
	b.ReportMetric(float64(b.N)*float64(macsPerOp)/b.Elapsed().Seconds(), "MAC/s")
}

// benchConvTile times one full-output convTile of resnet-lite's res1/c1
// shape (3×3, 16→16 channels, 16×16 map, FP16) with the given share of
// activations zeroed, as a ReLU leaves them.
func benchConvTile(b *testing.B, zeroFrac float64) {
	rng := rand.New(rand.NewSource(31))
	codec := numerics.MustCodec(numerics.FP16, 0)
	l := NewConv2D("c", 3, 3, 16, 16, 1, 1, codec).InitRandom(rng, 0.1)
	x := tensor.New(1, 16, 16, 16)
	x.RandNormal(rng, 1)
	for i, d := 0, x.Data(); i < len(d); i++ {
		if rng.Float64() < zeroFrac {
			d[i] = 0
		}
	}
	oh, ow := l.outHW(x.Dim(1), x.Dim(2))
	out := tensor.New(x.Dim(0), oh, ow, l.OutC)
	a := l.kernelArgs(new(convArgs), x, out, codec.RoundSlice(x.Data()), 0)
	accs := make([]float32, a.outC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convTile(a, 0, a.oh, 0, a.ow, accs)
	}
	// Nominal MACs of the interior; the padded border does a few fewer.
	reportMACs(b, a.oh*a.ow*a.outC*a.kh*a.kw*a.inC)
}

func BenchmarkConvTileDense(b *testing.B)    { benchConvTile(b, 0) }
func BenchmarkConvTileSparse50(b *testing.B) { benchConvTile(b, 0.5) }

// BenchmarkConvTileDepthwise times one full-output convTile of each of
// mobilenet-lite's 3×3 depthwise layers — ds1 8×8×8, ds2 8×8×16 at stride 2,
// ds3 4×4×32, pad 1 — at FP16 and INT8: MAC/s over the taps that fall inside
// the map, and ns per output pixel.
func BenchmarkConvTileDepthwise(b *testing.B) {
	for _, p := range []numerics.Precision{numerics.FP16, numerics.INT8} {
		for _, s := range []struct{ hw, c, stride int }{{8, 8, 1}, {8, 16, 2}, {4, 32, 1}} {
			b.Run(fmt.Sprintf("%v/%dx%dx%d/s%d", p, s.hw, s.hw, s.c, s.stride), func(b *testing.B) {
				rng := rand.New(rand.NewSource(35))
				codec := numerics.MustCodec(p, 6)
				l := NewDepthwiseConv2D("dw", 3, 3, s.c, s.stride, 1, codec).InitRandom(rng, 0.3)
				x := tensor.New(1, s.hw, s.hw, s.c)
				x.RandNormal(rng, 1)
				oh, ow := l.outHW(s.hw, s.hw)
				out := tensor.New(1, oh, ow, s.c)
				a := l.kernelArgs(new(convArgs), x, out, codec.RoundSlice(x.Data()), 0)
				accs := make([]float32, a.outC)
				macs := 0
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						kyLo, kyHi := kernelSpan(oy, a.stride, a.pd, a.kh, a.h)
						kxLo, kxHi := kernelSpan(ox, a.stride, a.pd, a.kw, a.w)
						macs += (kyHi - kyLo) * (kxHi - kxLo) * s.c
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					convTile(a, 0, oh, 0, ow, accs)
				}
				reportMACs(b, macs)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*oh*ow), "ns/pixel")
			})
		}
	}
}

// BenchmarkDenseTile times an FP16 dense layer's whole output, with its bias:
// 512→256 on one input, and transformer-lite's two shapes, 32→64 and 64→32
// on 24 tokens, where the bias add is a share of the tile to see.
func BenchmarkDenseTile(b *testing.B) {
	for _, s := range []struct{ batch, in, out int }{{1, 512, 256}, {24, 32, 64}, {24, 64, 32}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.batch, s.in, s.out), func(b *testing.B) {
			rng := rand.New(rand.NewSource(32))
			codec := numerics.MustCodec(numerics.FP16, 0)
			l := NewDense("d", s.in, s.out, codec).InitRandom(rng, 0.05)
			x := tensor.New(s.batch, s.in)
			x.RandNormal(rng, 1)
			rw, rin := l.wcache.get(codec, l.W), codec.RoundSlice(x.Data())
			out := make([]float32, s.batch*s.out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(out)
				denseTile(l, rw, rin, out, s.batch)
			}
			reportMACs(b, s.batch*s.in*s.out)
		})
	}
}

// BenchmarkMatMulTile times a 64×64×64 FP16 product in both operand layouts:
// the tile alone, and with what MatMulSite.Run adds for a TransposeB operand,
// its once-per-execution transpose and rounding.
func BenchmarkMatMulTile(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	codec := numerics.MustCodec(numerics.FP16, 0)
	ta, tb := tensor.New(64, 64), tensor.New(64, 64)
	ta.RandNormal(rng, 1)
	tb.RandNormal(rng, 1)
	out := make([]float32, 64*64)
	site := NewMatMulSite("mm", false, 0, codec)
	ra, rb := codec.RoundSlice(ta.Data()), codec.RoundSlice(tb.Data())
	for _, transposeB := range []bool{false, true} {
		name := "plain"
		if transposeB {
			name = "transposeB"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if transposeB {
					transposeInto(rb, tb.Data(), 64, 64)
					codec.RoundInto(rb, rb)
				}
				clear(out)
				matmulTile(site, ra, rb, out, 64, 64, 64)
			}
			reportMACs(b, 64*64*64)
		})
	}
}

// BenchmarkActivationApply times the two rectifiers of the zoo over one
// 16×16×16 FP16 map of N(0, 3²) values — half of them negative, a few past 6 —
// function and rounding.
func BenchmarkActivationApply(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	codec := numerics.MustCodec(numerics.FP16, 0)
	x := tensor.New(1, 16, 16, 16)
	x.RandNormal(rng, 3)
	out := make([]float32, x.Size())
	for _, l := range []*Activation{NewReLU("relu", codec), NewRelu6("relu6", codec)} {
		b.Run(l.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.apply(out, x.Data())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/element")
		})
	}
}

// BenchmarkMaxPoolRegion times the zoo's two max-pooling shapes on
// inception-lite's maps, whole output: the 3/1 window over a padded 18×18×16
// map and the 2/2 one over 16×16×32.
func BenchmarkMaxPoolRegion(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	for _, g := range []struct{ size, stride, hw, c int }{{3, 1, 18, 16}, {2, 2, 16, 32}} {
		x := tensor.New(1, g.hw, g.hw, g.c)
		x.RandNormal(rng, 1)
		o := (g.hw-g.size)/g.stride + 1
		out := tensor.New(1, o, o, g.c)
		b.Run(fmt.Sprintf("%dx%d-s%d-c%d", g.size, g.size, g.stride, g.c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maxPoolRegion(x, out, g.size, g.stride, 0, o, 0, o)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(out.Size()), "ns/output")
		})
	}
}

// BenchmarkResidualAdd times the add-and-round of a residual block whose body
// and shortcut are both the identity, on a 16×16×16 FP16 map: one output
// tensor allocated, the sum, the rounding.
func BenchmarkResidualAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	codec := numerics.MustCodec(numerics.FP16, 0)
	x := tensor.New(1, 16, 16, 16)
	x.RandNormal(rng, 1)
	l := NewResidual("res", NewSequential("body"), nil, codec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Size()), "ns/element")
}

// BenchmarkComputeNeuron times the per-neuron recompute a datapath fault
// triggers, with and without an input override landing in the neuron's
// receptive field, on the res1/c1 shape.
func BenchmarkComputeNeuron(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	codec := numerics.MustCodec(numerics.FP16, 0)
	l := NewConv2D("c", 3, 3, 16, 16, 1, 1, codec).InitRandom(rng, 0.1)
	x := tensor.New(1, 16, 16, 16)
	x.RandNormal(rng, 1)
	codec.RoundInto(x.Data(), x.Data()) // a stored activation is a half already
	op := &Operands{In: x, W: l.W, B: l.B, Out: l.Forward(x, nil)}
	off := (8*16+8)*16 + 3 // neuron (0, 8, 8, 3)
	for _, bc := range []struct {
		name string
		ov   *Override
	}{
		{"clean", nil},
		{"input-override", &Override{Kind: OperandInput, Flat: (8*16+8)*16 + 5, Value: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += l.ComputeNeuron(op, off, bc.ov)
			}
			_ = sink
			reportMACs(b, 3*3*16)
		})
	}
	// The reuse sets of mobilenet-lite's ds1 (8×8×8 depthwise, 3×3),
	// recomputed as a Before-CBUF fault recomputes them; ns/neuron is over
	// the set. An input fault's: one channel of the nine pixels around it.
	dw := NewDepthwiseConv2D("dw", 3, 3, 8, 1, 1, codec).InitRandom(rng, 0.3)
	xd := tensor.New(1, 8, 8, 8)
	xd.RandNormal(rng, 1)
	codec.RoundInto(xd.Data(), xd.Data())
	dop := &Operands{In: xd, W: dw.W, B: dw.B, Out: dw.Forward(xd, nil)}
	ov := &Override{Kind: OperandInput, Flat: (4*8+4)*8 + 5, Value: 2}
	set := dw.NeuronsUsingOperand(dop, OperandInput, ov.Flat, nil)
	// A weight fault's: one channel of every pixel.
	wov := &Override{Kind: OperandWeight, Flat: 4*8 + 5, Value: 2}
	wset := dw.NeuronsUsingOperand(dop, OperandWeight, wov.Flat, nil)
	for _, bc := range []struct {
		name string
		ov   *Override
		set  []int
	}{{"input-set", ov, set}, {"weight-set", wov, wset}} {
		dst := make([]float32, len(bc.set))
		b.Run("depthwise/"+bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dw.ComputeNeurons(dop, bc.set, bc.ov, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.set)), "ns/neuron")
		})
	}
}

// diffBoxSink keeps the scans' results live.
var diffBoxSink box

// BenchmarkDiffBox times the convergence-and-region scan of one swept box —
// the whole map of an 8×8×64 and of a 32×32×16 output — in the three states
// replay meets: equal to golden (a converged recompute), differing everywhere
// (a dirty suffix layer), and differing in one pixel. ns/element is over the
// box's element count, read or not.
func BenchmarkDiffBox(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	for _, shape := range [][]int{{1, 8, 8, 64}, {1, 32, 32, 16}} {
		h, w, c := shape[1], shape[2], shape[3]
		golden := tensor.New(shape...)
		golden.RandNormal(rng, 1)
		states := []struct {
			name  string
			dirty func(d []float32)
		}{
			{"equal", func(d []float32) {}},
			{"dense-dirty", func(d []float32) {
				for i := range d {
					d[i] += 1
				}
			}},
			{"one-pixel", func(d []float32) {
				px := d[((h/2)*w+w/2)*c:][:c]
				for i := range px {
					px[i] += 1
				}
			}},
		}
		for _, st := range states {
			out := golden.Clone()
			st.dirty(out.Data())
			b.Run(fmt.Sprintf("%s/%dx%dx%d", st.name, h, w, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					diffBoxSink, _ = diffBox(out, golden, box{0, h, 0, w})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h*w*c), "ns/element")
			})
		}
	}
}

// BenchmarkReplaySkip times one replayed experiment whose fault is masked at
// the site: the target is seeded from golden, converges at once, and every
// other execution is a skip — the replay engine's bookkeeping and nothing
// else. ns/layer is over the trace's executions.
func BenchmarkReplaySkip(b *testing.B) {
	n := replayNets()["residual-in-branches"]
	_, execs, trace := n.net.TraceWithActivations(n.x)
	arena := NewArena()
	rctx := NewReplayContext(trace, arena)
	hook := func(Layer, int, *Operands) {}
	target := execs[len(execs)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		rctx.SetTarget(target.Site, target.Visit, hook)
		n.net.ForwardWithContext(n.x, rctx)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(trace.steps)), "ns/layer")
}

// glueSink keeps BenchmarkGlueSweep's steps from being optimised away.
var glueSink *tensor.Tensor

// BenchmarkGlueSweep times one dirty replay step of each kind whose output the
// replay context owns: a branch concat's glue sweep (inception-lite's inc1
// concat, 16×16×32, from four branches of 8 channels, a 3×3 dirty box),
// attention's softmax glue sweep (transformer-lite's 24×24 scores, two dirty
// rows) and ZeroPad's recompute (inc1's pool branch, 16×16×16 padded by 1).
// One op is the step as replay runs it — the trace lookup, the sweep or the
// compute, the convergence scan — on a context whose one dirty input carries
// its recorded box, as after the injection.
func BenchmarkGlueSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	id := func(name string) Layer { return NewSequential(name) }
	br := NewBranches("br", 3, id("a"), id("b"), id("c"), id("d"))
	mha := NewMultiHeadAttention("mha", 32, 4, fp16Codec())
	pad := NewZeroPad("pad", 1)
	cases := []struct {
		name string
		x    *tensor.Tensor
		bx   box
		step func(ctx *Context, x *tensor.Tensor) *tensor.Tensor
	}{
		{"concat", tensor.New(1, 16, 16, 8), box{6, 9, 6, 9},
			func(ctx *Context, x *tensor.Tensor) *tensor.Tensor { return br.Forward(x, ctx) }},
		{"softmax", tensor.New(24, 24), box{5, 7, 0, 1},
			func(ctx *Context, x *tensor.Tensor) *tensor.Tensor { return mha.softmax(ctx, x) }},
		{"zeropad", tensor.New(1, 16, 16, 16), box{6, 9, 6, 9},
			func(ctx *Context, x *tensor.Tensor) *tensor.Tensor { return pad.Forward(x, ctx) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			tc.x.RandNormal(rng, 1)
			rec, trace := NewRecordContext(nil)
			trace.MarkGolden(tc.x)
			tc.step(rec, tc.x)
			dirty := tc.x.Clone()
			c := dirty.Dim(dirty.Rank() - 1)
			tc.bx.runs(dirty, func(p0, p1 int) {
				for i := p0 * c; i < p1*c; i++ {
					dirty.Data()[i]++
				}
			})
			ctx := NewReplayContext(trace, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.arena.Reset()
				ctx.seq, ctx.injected = 0, true
				ctx.dirty = append(ctx.dirty[:0], dirtyOut{dirty, tc.bx})
				glueSink = tc.step(ctx, dirty)
			}
		})
	}
}
