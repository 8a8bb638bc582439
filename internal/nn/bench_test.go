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
		convTile(a, 0, 0, a.oh, 0, a.ow, accs)
	}
	// Nominal MACs of the interior; the padded border does a few fewer.
	reportMACs(b, a.oh*a.ow*a.outC*a.kh*a.kw*a.inC)
}

func BenchmarkConvTileDense(b *testing.B)    { benchConvTile(b, 0) }
func BenchmarkConvTileSparse50(b *testing.B) { benchConvTile(b, 0.5) }

// BenchmarkDenseTile times a 512→256 FP16 dense layer's whole output.
func BenchmarkDenseTile(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	codec := numerics.MustCodec(numerics.FP16, 0)
	l := NewDense("d", 512, 256, codec).InitRandom(rng, 0.05)
	x := tensor.New(1, 512)
	x.RandNormal(rng, 1)
	rw := l.wcache.get(codec, l.W)
	out := make([]float32, 256)
	a := &denseArgs{
		rin: codec.RoundSlice(x.Data()), rw: rw.rw, bias: l.B.Data(), out: out,
		batch: 1, in: 512, outN: 256, fp16: true, thr: rw.thr, codec: codec,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		denseTile(a, 0, 1, 0, 256)
	}
	reportMACs(b, 512*256)
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
	a := &matmulArgs{
		ra: codec.RoundSlice(ta.Data()), rb: codec.RoundSlice(tb.Data()), out: out,
		m: 64, k: 64, n: 64, fp16: true, codec: codec,
	}
	for _, transposeB := range []bool{false, true} {
		name := "plain"
		if transposeB {
			name = "transposeB"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if transposeB {
					transposeInto(a.rb, tb.Data(), 64, 64)
					codec.RoundInto(a.rb, a.rb)
				}
				clear(out)
				matmulTile(a, 0, 64, 0, 64)
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
}

// diffSpanSink keeps the scans' results live.
var diffSpanSink span

// BenchmarkDiffSpan times the convergence-and-span scan of one swept box —
// the whole map of an 8×8×64 and of a 32×32×16 output — in the three states
// replay meets: equal to golden (a converged recompute), differing everywhere
// (a dirty suffix layer), and differing in one pixel. ns/element is over the
// box's element count, read or not.
func BenchmarkDiffSpan(b *testing.B) {
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
					diffSpanSink, _ = diffSpanBox(out, golden, box{0, h, 0, w})
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
