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
	run := func(name string, macs int, f func(i int)) {
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
	for _, bc := range []struct{ size, ch int }{{16, 16}, {8, 32}} {
		size, ch := bc.size, bc.ch
		rng := rand.New(rand.NewSource(74))
		const maps = 16
		in := make([]float32, maps*size*size*ch)
		for i := range in {
			if rng.Float64() >= 0.57 {
				in[i] = RoundHalf(float32(math.Abs(rng.NormFloat64())))
			}
		}
		_, w := benchOperands(9 * ch * ch)
		acc := make([]float32, ch)
		// pixel accumulates output pixel (oy, ox) as nn's convPixel does and
		// returns its multiply-adds.
		pixel := func(m, oy, ox int) (macs int) {
			clear(acc)
			kxLo, kxHi := max(1-ox, 0), min(size+1-ox, 3)
			for ky := max(1-oy, 0); ky < min(size+1-oy, 3); ky++ {
				irow := in[((m*size+oy+ky-1)*size+ox+kxLo-1)*ch : ((m*size+oy+ky-1)*size+ox+kxHi-1)*ch]
				HalfMulAddPanel(acc, irow, w[(ky*3+kxLo)*ch*ch:], ch, true)
				macs += len(irow) * ch
			}
			return macs
		}
		total := 0
		for p := 0; p < size*size; p++ {
			total += pixel(0, p/size, p%size)
		}
		run(fmt.Sprintf("pixel/c%d", ch), total/(size*size), func(i int) { pixel(i/(size*size)%maps, i/size%size, i%size) })
	}
	for _, n := range []int{8, 16, 32, 64, 72} {
		for _, rows := range []int{16, 144, 576} {
			a, _ := benchOperands(rows)
			for i := 0; i < rows; i += 5 {
				a[i] = 0
			}
			_, w := benchOperands(rows * n)
			acc := make([]float32, n)
			run(fmt.Sprintf("n%d/rows%d", n, rows), rows*n, func(int) {
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
	run("oneInfRow", rows*n, func(int) {
		clear(acc)
		HalfMulAddPanel(acc, bad, w, n, true)
	})
	nan := make([]float32, rows)
	for i := range nan {
		nan[i] = float32(math.NaN())
	}
	run("allNaN", rows*n, func(int) {
		clear(acc)
		HalfMulAddPanel(acc, nan, w, n, true)
	})
}

// BenchmarkMulAddPanel times the float32 panel of the INT8, INT16 and FP32
// kernels at the widths inception-lite's convolutions hand it — 4, 8, 12 and
// 16 outputs, one column block each — and at 32, over 72 rows (a 3×3×8 kernel
// row set), a fifth of the activations zero and skipped, with the lanes off
// and on.
func BenchmarkMulAddPanel(b *testing.B) {
	const rows = 72
	for _, n := range []int{4, 8, 12, 16, 32} {
		a, _ := benchOperands(rows)
		for i := 0; i < rows; i += 5 {
			a[i] = 0
		}
		_, w := benchOperands(rows * n)
		acc := make([]float32, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eachDispatch(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clear(acc)
					MulAddPanel(acc, a, w, n, true)
				}
				b.ReportMetric(float64(b.N)*float64(rows*n)/b.Elapsed().Seconds(), "MAC/s")
			})
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
