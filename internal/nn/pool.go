package nn

import (
	"fmt"
	"math"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// MaxPool is a 2-D max pooling layer over NHWC input. Max pooling masks
// faulty neurons that are not the window maximum — one of the error-masking
// mechanisms FIdelity's outcome statistics capture.
type MaxPool struct {
	name         string
	Size, Stride int
}

// NewMaxPool builds a max-pooling layer.
func NewMaxPool(name string, size, stride int) *MaxPool {
	if size <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: invalid MaxPool size=%d stride=%d", size, stride))
	}
	return &MaxPool{name: name, Size: size, Stride: stride}
}

// Name implements Layer.
func (l *MaxPool) Name() string { return l.name }

// Forward implements Layer.
func (l *MaxPool) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	h, w, c := x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-l.Size)/l.Stride + 1
	ow := (w-l.Size)/l.Stride + 1
	if x.Dim(0) != 1 || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s expects one NHWC image of at least pool %d/%d, got %v", l.name, l.Size, l.Stride, x.Shape()))
	}
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(1, oh, ow, c)
		maxPoolRegion(x, out, l.Size, l.Stride, 0, oh, 0, ow)
		return out
	}, nil, x)
}

// maxPoolRegion computes max-pool output rows [y0,y1) × cols [x0,x1) with
// flattened indexing. Each output cell starts at -Inf and takes its window's
// cells one numerics.MaxRow at a time, in (py, px) ascending order per channel,
// matching the naive loop (max is order-independent, but we keep the order
// anyway so NaN tie behavior cannot drift).
func maxPoolRegion(x, out *tensor.Tensor, size, stride, y0, y1, x0, x1 int) {
	w, c := x.Dim(2), x.Dim(3)
	ow := out.Dim(2)
	xd, od := x.Data(), out.Data()
	negInf := float32(math.Inf(-1))
	for y := y0; y < y1; y++ {
		for xx := x0; xx < x1; xx++ {
			outBase := (y*ow + xx) * c
			maxs := od[outBase : outBase+c]
			for ch := range maxs {
				maxs[ch] = negInf
			}
			for py := 0; py < size; py++ {
				rowBase := ((y*stride+py)*w + xx*stride) * c
				win := xd[rowBase : rowBase+size*c]
				for px := 0; px < size; px++ {
					numerics.MaxRow(maxs, win[px*c:px*c+c])
				}
			}
		}
	}
}

// GlobalAvgPool averages each channel over all spatial positions of one NHWC
// image, producing (1, C). Used ahead of the classifier head in the CNN models.
type GlobalAvgPool struct {
	name  string
	codec numerics.Codec
}

// NewGlobalAvgPool builds a global average pooling layer.
func NewGlobalAvgPool(name string, codec numerics.Codec) *GlobalAvgPool {
	return &GlobalAvgPool{name: name, codec: codec}
}

// Name implements Layer.
func (l *GlobalAvgPool) Name() string { return l.name }

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(0) != 1 {
		panic(fmt.Sprintf("nn: %s expects one NHWC image, got %v", l.name, x.Shape()))
	}
	h, w, c := x.Dim(1), x.Dim(2), x.Dim(3)
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(1, c)
		inv := 1 / float32(h*w)
		xd, od := x.Data(), out.Data()
		sc := ctx.scratch()
		sc.sums = grow(sc.sums, c)
		sums := sc.sums
		clear(sums)
		// Flattened single pass; each channel's float64 sum still accumulates
		// spatial positions in (y, x) ascending order, so the result is
		// bit-identical to the naive per-channel walk.
		for base := 0; base+c <= len(xd); base += c {
			cell := xd[base : base+c]
			sums := sums[:len(cell)]
			for ch, v := range cell {
				sums[ch] += float64(v)
			}
		}
		od = od[:len(sums)]
		for ch := range od {
			od[ch] = l.codec.Round(float32(sums[ch]) * inv)
		}
		return out
	}, nil, x)
}
