package numerics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// benchOperands returns n activations ~ N(0,1) and n weights ~ N(0, 0.1²),
// both stored as halves: the zoo's conv layers in miniature. About 4% of the
// products land in the half-subnormal band, so the benchmarks time the mix of
// rounding paths a campaign sees, not the normal band alone.
func benchOperands(n int) (a, w []float32) {
	rng := rand.New(rand.NewSource(71))
	a, w = make([]float32, n), make([]float32, n)
	for i := range a {
		a[i] = RoundHalf(float32(rng.NormFloat64()))
		w[i] = RoundHalf(float32(rng.NormFloat64() * 0.1))
	}
	return a, w
}

// BenchmarkHalfMulAddRow times the three FP16 row primitives on the row
// widths the zoo uses (16–32 output channels) and on one long row, each with
// the lanes off and on.
func BenchmarkHalfMulAddRow(b *testing.B) {
	for _, bc := range []struct {
		name  string
		width int
	}{{"row16", 16}, {"row32", 32}, {"row512", 512}} {
		a, w := benchOperands(bc.width)
		acc := make([]float32, bc.width)
		run := func(name string, f func()) {
			b.Run(name+"/"+bc.name, func(b *testing.B) {
				eachDispatch(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f()
					}
					b.ReportMetric(float64(b.N)*float64(bc.width)/b.Elapsed().Seconds(), "MAC/s")
				})
			})
		}
		run("row", func() { HalfMulAddRow(acc, a[0], w) })
		run("vec", func() { HalfMulAddVec(acc, a, w) })
		run("dot", func() { acc[0] = HalfDot(0, a, w) })
	}
}

// BenchmarkHalfMulAddPanel times the panel, each case with the lanes off and
// on:
//
//   - pixel/c16 and pixel/c32, the calls a campaign on resnet-lite makes (measured
//     on the benchmark's resnet-fixed: 72 rows by 27.6 columns a call, 57% of
//     the rows ±0 and skipped): the output pixels of a 3×3 convolution of a
//     16×16×16 and of an 8×8×32 map in turn, borders clipped — up to three
//     kernel rows a pixel, a fresh window of a post-ReLU map each time, against
//     a 9 KB and a 36 KB weight tensor. This is the case to quote;
//   - n<width>/rows<rows>, one fixed activation vector with every fifth entry
//     zero over one cache-resident panel: an upper bound no campaign sees — the
//     skip branch predicts perfectly and nothing misses;
//   - oneInfRow and allNaN, the worst cases of the block rule on a 144×32
//     panel: one Inf activation sends every column block through the Go loop
//     after the lanes ran it for nothing, and a panel of NaN does the same
//     where nothing is skipped.
func BenchmarkHalfMulAddPanel(b *testing.B) {
	for _, bc := range []struct{ size, ch int }{{16, 16}, {8, 32}} {
		pixel, macs := convPixels(bc.size, bc.ch, bc.ch, 0.57, func(acc, a, w []float32, stride int) {
			HalfMulAddPanel(acc, a, w, stride, true)
		})
		benchMACs(b, fmt.Sprintf("pixel/c%d", bc.ch), macs, func(i int) { pixel(i) })
	}
	for _, n := range []int{8, 16, 32, 64, 72} {
		for _, rows := range []int{16, 144, 576} {
			a, _ := benchOperands(rows)
			for i := 0; i < rows; i += 5 {
				a[i] = 0
			}
			_, w := benchOperands(rows * n)
			acc := make([]float32, n)
			benchMACs(b, fmt.Sprintf("n%d/rows%d", n, rows), rows*n, func(int) {
				clear(acc)
				HalfMulAddPanel(acc, a, w, n, true)
			})
		}
	}
	const n, rows = 32, 144
	a, w := benchOperands(rows * n)
	acc := make([]float32, n)
	bad := append([]float32(nil), a[:rows]...)
	bad[rows/2] = float32(math.Inf(1))
	benchMACs(b, "oneInfRow", rows*n, func(int) {
		clear(acc)
		HalfMulAddPanel(acc, bad, w, n, true)
	})
	nan := make([]float32, rows)
	for i := range nan {
		nan[i] = float32(math.NaN())
	}
	benchMACs(b, "allNaN", rows*n, func(int) {
		clear(acc)
		HalfMulAddPanel(acc, nan, w, n, true)
	})
}

// benchMACs runs f(i) for the i-th iteration of the named case, with the
// lanes off and on, and reports macs multiply-adds an iteration as MAC/s.
func benchMACs(b *testing.B, name string, macs int, f func(i int)) {
	b.Run(name, func(b *testing.B) {
		eachDispatch(b, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f(i)
			}
			b.ReportMetric(float64(b.N)*float64(macs)/b.Elapsed().Seconds(), "MAC/s")
		})
	})
}

// convPixels returns pixel, which computes one output pixel of a 3×3
// convolution (padding 1) of one of 16 size×size×inC post-ReLU maps to outC
// channels as nn's convPixel does — up to three kernel rows, borders clipped,
// each a fresh window of the map, through panel — and returns its
// multiply-adds; pixel(i) takes the pixels of each map in turn. A map value is
// 0 with probability zeros, at random, else |N(0,1)| stored as a half; macs is
// the mean multiply-adds of a pixel.
func convPixels(size, inC, outC int, zeros float64, panel func(acc, a, w []float32, stride int)) (pixel func(i int) int, macs int) {
	rng := rand.New(rand.NewSource(74))
	const maps = 16
	in := make([]float32, maps*size*size*inC)
	for i := range in {
		if rng.Float64() >= zeros {
			in[i] = RoundHalf(float32(math.Abs(rng.NormFloat64())))
		}
	}
	_, w := benchOperands(9 * inC * outC)
	acc := make([]float32, outC)
	pixel = func(i int) (macs int) {
		m, oy, ox := i/(size*size)%maps, i/size%size, i%size
		clear(acc)
		kxLo, kxHi := max(1-ox, 0), min(size+1-ox, 3)
		for ky := max(1-oy, 0); ky < min(size+1-oy, 3); ky++ {
			irow := in[((m*size+oy+ky-1)*size+ox+kxLo-1)*inC : ((m*size+oy+ky-1)*size+ox+kxHi-1)*inC]
			panel(acc, irow, w[(ky*3+kxLo)*inC*outC:], outC)
			macs += len(irow) * outC
		}
		return macs
	}
	for p := 0; p < size*size; p++ {
		macs += pixel(p)
	}
	return pixel, macs / (size * size)
}

// BenchmarkMulAddPanel times the float32 panel of the INT8, INT16 and FP32
// kernels, each case with the lanes off and on:
//
//   - pixel/c4, pixel/c8 and pixel/c12, the calls a campaign on
//     inception-lite makes: the output pixels of a 3×3 convolution of a
//     16×16×8 post-ReLU map, half its values 0 at random, to the 4, 8 and 12
//     channels of its branches (convPixels). This is the case to quote;
//   - n<width>, one fixed vector of 72 activations (a 3×3×8 kernel row set),
//     every fifth 0, over one cache-resident panel of 4, 8, 12, 16 and 32
//     outputs: an upper bound, where nothing misses.
func BenchmarkMulAddPanel(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		pixel, macs := convPixels(16, 8, n, 0.5, MulAddPanel)
		benchMACs(b, fmt.Sprintf("pixel/c%d", n), macs, func(i int) { pixel(i) })
	}
	const rows = 72
	for _, n := range []int{4, 8, 12, 16, 32} {
		a, _ := benchOperands(rows)
		for i := 0; i < rows; i += 5 {
			a[i] = 0
		}
		_, w := benchOperands(rows * n)
		acc := make([]float32, n)
		benchMACs(b, fmt.Sprintf("n%d", n), rows*n, func(int) {
			clear(acc)
			MulAddPanel(acc, a, w, n)
		})
	}
}

func benchRoundSlice(b *testing.B, c Codec) {
	data, _ := benchOperands(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RoundSlice(data)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(len(data))), "ns/value")
}

func BenchmarkRoundSliceFP16(b *testing.B) {
	eachDispatch(b, func(b *testing.B) { benchRoundSlice(b, MustCodec(FP16, 0)) })
}
func BenchmarkRoundSliceINT8(b *testing.B) {
	eachDispatch(b, func(b *testing.B) { benchRoundSlice(b, MustCodec(INT8, 4)) })
}

// BenchmarkQuantRoundInto times the quantizers' storage rounding in place over
// one 16×16×16 activation map of N(0, 1) values in a range of ±4 (INT8: a few
// saturate), with the lanes off and on: what every rectifier, batch-norm and
// residual row ends on in a quantized network.
func BenchmarkQuantRoundInto(b *testing.B) {
	src, _ := benchOperands(4096)
	dst := make([]float32, len(src))
	for _, p := range []Precision{INT8, INT16} {
		c := MustCodec(p, 4)
		b.Run(strings.ToLower(p.String()), func(b *testing.B) {
			eachDispatch(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.RoundInto(dst, src)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(len(src))), "ns/value")
			})
		})
	}
}

// BenchmarkSaturateInto times the converter over a 64-wide output row, the
// epilogue of every kernel tile: conv-sized accumulators (N(0, 3²)), none of
// which saturate in FP16 and a few of which do in INT8, with the lanes off and
// on.
func BenchmarkSaturateInto(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	src, dst := make([]float32, 64), make([]float32, 64)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 3)
	}
	run := func(b *testing.B, c Codec) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.SaturateInto(dst, src)
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(len(src))), "ns/value")
	}
	b.Run("fp16", func(b *testing.B) {
		eachDispatch(b, func(b *testing.B) { run(b, MustCodec(FP16, 0)) })
	})
	b.Run("int8", func(b *testing.B) {
		eachDispatch(b, func(b *testing.B) { run(b, MustCodec(INT8, 8)) })
	})
}
