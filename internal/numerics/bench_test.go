package numerics

import (
	"fmt"
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

// BenchmarkHalfMulAddPanel times the panel on the shapes the kernels hand it:
// n output channels wide (72: a ninth chunk; the zoo's layers are 8–64), and
// one pointwise position (16 rows), one 3×3×16 kernel row set (144) or one
// 3×3×64 (576) long, a fifth of the activations zero and skipped, each with
// the lanes off and on.
func BenchmarkHalfMulAddPanel(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 72} {
		for _, rows := range []int{16, 144, 576} {
			a, _ := benchOperands(rows)
			for i := 0; i < rows; i += 5 {
				a[i] = 0
			}
			_, w := benchOperands(rows * n)
			acc := make([]float32, n)
			b.Run(fmt.Sprintf("n%d/rows%d", n, rows), func(b *testing.B) {
				eachDispatch(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						clear(acc)
						HalfMulAddPanel(acc, a, w, n, true)
					}
					b.ReportMetric(float64(b.N)*float64(rows*n)/b.Elapsed().Seconds(), "MAC/s")
				})
			})
		}
	}
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
