package nn

// kernels_ref.go preserves the pre-tiling layer loops exactly as they shipped
// with the replay engine (PR 4), including the reference FP16 rounding path.
// They are the oracle for the kernel equivalence tests and the campaign
// conformance suite; production forwards run the tiled kernels in
// kernels.go. Do not "optimize" these: their value is being the slow, known-
// good implementation.

import (
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// convForwardRef is the reference Conv2D forward loop.
func convForwardRef(l *Conv2D, x, out *tensor.Tensor, rin, rw []float32) {
	os := out.Shape()
	fp16 := l.codec.Precision() == numerics.FP16
	od := out.Data()
	n, oh, ow, outC := os[0], os[1], os[2], os[3]
	h, wd, inC := x.Dim(1), x.Dim(2), l.InC
	accs := make([]float32, outC)
	var bias []float32
	if l.B != nil {
		bias = l.B.Data()
	}

	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for c := range accs {
					accs[c] = 0
				}
				for ky := 0; ky < l.KH; ky++ {
					iy := oy*l.Stride + ky - l.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < l.KW; kx++ {
						ix := ox*l.Stride + kx - l.Pad
						if ix < 0 || ix >= wd {
							continue
						}
						inBase := ((b*h+iy)*wd + ix) * inC
						if l.Depthwise {
							wBase := (ky*l.KW + kx) * inC
							for c := 0; c < outC; c++ {
								p := rin[inBase+c] * rw[wBase+c]
								if fp16 {
									p = numerics.RoundHalfRef(p)
								}
								accs[c] += p
							}
							continue
						}
						for ic := 0; ic < inC; ic++ {
							av := rin[inBase+ic]
							wBase := ((ky*l.KW+kx)*inC + ic) * outC
							wrow := rw[wBase : wBase+outC]
							if fp16 {
								for c, wv := range wrow {
									accs[c] += numerics.RoundHalfRef(av * wv)
								}
							} else {
								for c, wv := range wrow {
									accs[c] += av * wv
								}
							}
						}
					}
				}
				outBase := ((b*oh+oy)*ow + ox) * outC
				for c := 0; c < outC; c++ {
					acc := accs[c]
					if bias != nil {
						acc += bias[c]
					}
					od[outBase+c] = l.codec.Saturate(acc)
				}
			}
		}
	}
}

// denseForwardRef is the reference Dense forward loop.
func denseForwardRef(l *Dense, out *tensor.Tensor, rin, rw []float32, batch int) {
	fp16 := l.codec.Precision() == numerics.FP16
	od := out.Data()
	var bias []float32
	if l.B != nil {
		bias = l.B.Data()
	}
	for b := 0; b < batch; b++ {
		orow := od[b*l.Out : (b+1)*l.Out]
		for i := 0; i < l.In; i++ {
			av := rin[b*l.In+i]
			wrow := rw[i*l.Out : (i+1)*l.Out]
			if fp16 {
				for o, wv := range wrow {
					orow[o] += numerics.RoundHalfRef(av * wv)
				}
			} else {
				for o, wv := range wrow {
					orow[o] += av * wv
				}
			}
		}
		for o := 0; o < l.Out; o++ {
			acc := orow[o]
			if bias != nil {
				acc += bias[o]
			}
			orow[o] = l.codec.Saturate(acc)
		}
	}
}

// matmulForwardRef is the reference MatMulSite loop.
func matmulForwardRef(l *MatMulSite, out *tensor.Tensor, ra, rb []float32, m, k, n int) {
	fp16 := l.codec.Precision() == numerics.FP16
	od := out.Data()
	for i := 0; i < m; i++ {
		arow := ra[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if l.TransposeB {
				// B row j holds (j, p): stride k per output column.
				if fp16 {
					for j := 0; j < n; j++ {
						orow[j] += numerics.RoundHalfRef(av * rb[j*k+p])
					}
				} else {
					for j := 0; j < n; j++ {
						orow[j] += av * rb[j*k+p]
					}
				}
				continue
			}
			brow := rb[p*n : (p+1)*n]
			if fp16 {
				for j, wv := range brow {
					orow[j] += numerics.RoundHalfRef(av * wv)
				}
			} else {
				for j, wv := range brow {
					orow[j] += av * wv
				}
			}
		}
		for j := 0; j < n; j++ {
			acc := orow[j]
			if l.ScaleOut != 0 {
				acc *= l.ScaleOut
			}
			orow[j] = l.codec.Saturate(acc)
		}
	}
}
