package nn

// region.go extends the replay engine with dirty-region tracking: when a
// recomputed layer differs from golden, the replay context records a
// conservative bound (a span) on *which elements* differ, and downstream
// layers that support it recompute only the output region those elements can
// reach, copying everything else from their golden output. For a single-site
// fault in a deep CNN the dirty region is a few rows tall, so a suffix layer
// costs O(region) instead of O(layer).
//
// Bit-exactness argument: a region-capable layer computes each output neuron
// with the same tiled kernel (same accumulation order, same rounding) as the
// full forward pass, and every neuron it does not compute is copied from the
// golden output. Neurons outside the mapped output region read only input
// elements outside the recorded input span, which are bit-equal to golden by
// the span invariant — so recomputing them would reproduce the golden value
// exactly, and the copy is indistinguishable from recomputation. The span
// invariant itself is maintained by scanning: every recomputed output is
// diffed against golden (the scan replay already paid for convergence
// detection), and the recorded span covers all differing elements.

import (
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// span is a conservative bound on the elements of a tensor that may differ
// from its golden value: a flat element range [lo, hi), plus a spatial box
// over the H and W dimensions (all batches, all channels) when the tensor is
// rank-4 NHWC.
type span struct {
	lo, hi         int
	y0, y1, x0, x1 int
	boxed          bool
}

// boxIn resolves the span to a spatial box for a rank-4 tensor of height h
// and width w with rowStride = w*c elements per row and imgStride = h*w*c
// per batch image. Unboxed spans that stay within one batch image resolve to
// their row range at full width; spans crossing batch images resolve to the
// full spatial extent.
func (s span) boxIn(h, w, rowStride, imgStride int) (y0, y1, x0, x1 int) {
	if s.boxed {
		return s.y0, s.y1, s.x0, s.x1
	}
	if s.lo/imgStride == (s.hi-1)/imgStride {
		return (s.lo / rowStride) % h, ((s.hi-1)/rowStride)%h + 1, 0, w
	}
	return 0, h, 0, w
}

// diffSpanFlat scans elements [lo, hi) of out against golden — all of them,
// or the rows a rank-2 glue sweep recomputed, everything outside being a
// golden copy — and returns the span of differing elements. equal is true
// (and the span meaningless) when none differ.
func diffSpanFlat(out, golden *tensor.Tensor, lo, hi int) (sp span, equal bool) {
	od, gd := out.Data(), golden.Data()
	first, last := numerics.DiffEnds(od[lo:hi], gd[lo:hi])
	if last < 0 {
		return span{}, true
	}
	sp = span{lo: lo + first, hi: lo + last + 1}
	if out.Rank() == 4 {
		sp = boxify(od, gd, sp, out.Dim(1), out.Dim(2), out.Dim(3))
	}
	return sp, false
}

// boxify tightens a flat span over a rank-4 NHWC buffer into a spatial box:
// the rows of the flat range that hold a difference, and the columns between
// the leftmost first and the rightmost last difference of any row
// (numerics.DiffEnds scans a row from both ends inwards: the interior of a
// dirty row is never read). Row r of the buffer is row r%h of image r/h. The
// ends are kept as element offsets into their rows and turned into columns
// once: division by c is monotone, so the column of the leftmost offset is the
// leftmost column.
func boxify(od, gd []float32, sp span, h, w, c int) span {
	rowStride := w * c
	y0, y1, left, right := h, 0, rowStride, -1
	for r := sp.lo / rowStride; r*rowStride < sp.hi; r++ {
		row := r * rowStride
		lo, hi := max(sp.lo, row), min(sp.hi, row+rowStride)
		first, last := numerics.DiffEnds(od[lo:hi], gd[lo:hi])
		if last < 0 {
			continue
		}
		y := r % h
		y0, y1 = min(y0, y), max(y1, y+1)
		left, right = min(left, lo-row+first), max(right, lo-row+last)
	}
	sp.y0, sp.y1, sp.x0, sp.x1 = y0, y1, left/c, right/c+1
	sp.boxed = true
	return sp
}

// diffSpanBox scans only the given spatial box of a rank-4 tensor (the region
// a sweep recomputed; everything outside is a golden copy by construction)
// and returns the tightened span of differing elements, each row of the box
// scanned from both ends inwards and its columns found once, as in boxify.
func diffSpanBox(out, golden *tensor.Tensor, bx box) (sp span, equal bool) {
	od, gd := out.Data(), golden.Data()
	n, h, w, c := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
	width := (bx.x1 - bx.x0) * c
	sp = span{lo: len(od), y0: h, boxed: true}
	left, right := width, -1 // offsets into a row of the box
	for b := 0; b < n; b++ {
		for y := bx.y0; y < bx.y1; y++ {
			base := ((b*h+y)*w + bx.x0) * c
			first, last := numerics.DiffEnds(od[base:base+width], gd[base:base+width])
			if last < 0 {
				continue
			}
			sp.lo, sp.hi = min(sp.lo, base+first), max(sp.hi, base+last+1)
			sp.y0, sp.y1 = min(sp.y0, y), max(sp.y1, y+1)
			left, right = min(left, first), max(right, last)
		}
	}
	if right < 0 {
		return sp, true
	}
	sp.x0, sp.x1 = bx.x0+left/c, bx.x0+right/c+1
	return sp, false
}

// box is the spatial output region [y0,y1)×[x0,x1) (all batches, all
// channels) of a rank-4 NHWC tensor, or the rows [y0,y1) of a rank-2 one (x0,
// x1 = 0, 1, as grid views it). The zero box stands for "the whole tensor",
// whatever its rank.
type box struct{ y0, y1, x0, x1 int }

// grid views t as n images of h×w positions, each a vector of c elements
// along its last axis: NHWC at rank 4, (1, rows, 1, cols) at rank 2. ok is
// false at any other rank.
func grid(t *tensor.Tensor) (n, h, w, c int, ok bool) {
	switch t.Rank() {
	case 4:
		return t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3), true
	case 2:
		return 1, t.Dim(0), 1, t.Dim(1), true
	}
	return 0, 0, 0, 0, false
}

// runs calls f with every run [p0, p1) of consecutive positions of t (flat
// over grid's n, h, w) inside the box, in every image: one run per box row,
// or one per image when the box spans whole rows.
func (b box) runs(t *tensor.Tensor, f func(p0, p1 int)) {
	n, h, w, _, _ := grid(t)
	for i := 0; i < n; i++ {
		img := i * h * w
		if b.x0 == 0 && b.x1 == w {
			f(img+b.y0*w, img+b.y1*w)
			continue
		}
		for y := b.y0; y < b.y1; y++ {
			f(img+y*w+b.x0, img+y*w+b.x1)
		}
	}
}

// glueRegion returns the union of a glue step's dirty inputs' recorded spans
// as a box of out's positions. ok is false — the step computes in full — when
// out is neither rank 4 nor rank 2, or a dirty input has no recorded span or
// not out's positions (a concat along any but the last axis).
func (c *Context) glueRegion(out *tensor.Tensor, in []*tensor.Tensor) (r box, ok bool) {
	n, h, w, _, ok := grid(out)
	if !ok {
		return box{}, false
	}
	r = box{y0: h, x0: w}
	for _, t := range in {
		if t == nil || c.trace.golden[t] {
			continue
		}
		sp, spanned := c.spans[t]
		tn, th, tw, ch, _ := grid(t)
		if !spanned || tn != n || th != h || tw != w {
			return box{}, false
		}
		y0, y1, x0, x1 := sp.boxIn(h, w, w*ch, h*w*ch)
		r = box{min(r.y0, y0), max(r.y1, y1), min(r.x0, x0), max(r.x1, x1)}
	}
	return r, true
}

// regionSite is implemented by layers that can recompute just the output
// region reached by a dirty input span. forwardRegion returns the output
// tensor (seeded from golden outside the region) plus the output box it
// recomputed; ok is false when the dirty span maps to no output element
// (e.g. it falls off a stride lattice), meaning the golden output stands.
type regionSite interface {
	forwardRegion(c *Context, x, golden *tensor.Tensor, sp span) (out *tensor.Tensor, swept box, ok bool)
}

// windowRange maps a dirty input row range [i0,i1) to the output rows whose
// kernel windows overlap it, for kernel size k, stride s, padding p, clamped
// to [0, on).
func windowRange(i0, i1, k, s, p, on int) (o0, o1 int) {
	num := i0 + p - k + 1
	if num > 0 {
		o0 = (num + s - 1) / s
	}
	o1 = (i1-1+p)/s + 1
	if o1 > on {
		o1 = on
	}
	return o0, o1
}

// goldenCopy returns an arena-backed copy of golden: a recycled buffer when
// the arena has one of its size, else golden.Clone(), whose buffer is not
// zeroed before the copy overwrites it, lent like any other.
func (c *Context) goldenCopy(golden *tensor.Tensor) *tensor.Tensor {
	if out := c.arena.recycled(golden.Shape()...); out != nil {
		copy(out.Data(), golden.Data())
		return out
	}
	return c.arena.lend(golden.Clone())
}

// sweepBuf returns the owned buffer of l's glue step now running, equal to
// golden outside r, for the step's sweep to write r's positions into. When
// the buffer last held golden outside some box, only that box is copied
// back, so a sweep costs the old box and the new one; otherwise — a fresh
// buffer, a full compute, another trace since Rebind (another golden), a
// shape change — golden is copied whole. The buffer then records golden and
// r, which its sweep must write in full and nothing outside of.
func (c *Context) sweepBuf(l Layer, golden *tensor.Tensor, r box) *tensor.Tensor {
	o := c.slot(l)
	switch {
	case o.t == nil || !o.t.SameShape(golden):
		o.t = golden.Clone()
	case o.golden != golden:
		copy(o.t.Data(), golden.Data())
	default:
		od, gd, ch := o.t.Data(), golden.Data(), golden.Dim(golden.Rank()-1)
		o.box.runs(o.t, func(p0, p1 int) { copy(od[p0*ch:p1*ch], gd[p0*ch:p1*ch]) })
	}
	o.golden, o.box = golden, r
	return o.t
}

// forwardRegion implements regionSite for Conv2D: it maps the dirty input box
// through the kernel window geometry, rounds only the input rows the output
// box reads, and runs the tiled kernel over that box.
func (l *Conv2D) forwardRegion(c *Context, x, golden *tensor.Tensor, sp span) (*tensor.Tensor, box, bool) {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	os := golden.Shape()
	oh, ow := os[1], os[2]
	iy0, iy1, ix0, ix1 := sp.boxIn(h, w, w*l.InC, h*w*l.InC)
	oy0, oy1 := windowRange(iy0, iy1, l.KH, l.Stride, l.Pad, oh)
	ox0, ox1 := windowRange(ix0, ix1, l.KW, l.Stride, l.Pad, ow)
	if oy0 >= oy1 || ox0 >= ox1 {
		return nil, box{}, false
	}
	out := c.goldenCopy(golden)

	// Round only the input rows the output box reads. For FP32 rounding is
	// the identity, so the input buffer is used directly; multi-batch inputs
	// fall back to rounding the full tensor (row windows are per-image).
	var rin []float32
	rinOff := 0
	var scratch *tensor.Tensor
	switch {
	case l.codec.Precision() == numerics.FP32:
		rin = x.Data()
	case n == 1:
		wy0 := oy0*l.Stride - l.Pad
		if wy0 < 0 {
			wy0 = 0
		}
		wy1 := (oy1-1)*l.Stride + l.KH - l.Pad
		if wy1 > h {
			wy1 = h
		}
		rowStride := w * l.InC
		scratch = c.arena.get((wy1 - wy0) * rowStride)
		rin = scratch.Data()
		l.codec.RoundInto(rin, x.Data()[wy0*rowStride:wy1*rowStride])
		rinOff = wy0 * rowStride
	default:
		rin = round(&c.sc.in, l.codec, x.Data())
	}

	args := l.kernelArgs(&c.sc.cargs, x, out, rin, rinOff)
	c.sc.accs = grow(c.sc.accs, args.outC)
	for bi := 0; bi < n; bi++ {
		convTile(args, bi, oy0, oy1, ox0, ox1, c.sc.accs)
	}
	if scratch != nil {
		c.arena.release(scratch)
	}
	return out, box{oy0, oy1, ox0, ox1}, true
}

// forwardRegion implements regionSite for MaxPool.
func (l *MaxPool) forwardRegion(c *Context, x, golden *tensor.Tensor, sp span) (*tensor.Tensor, box, bool) {
	h, w, ch := x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := golden.Dim(1), golden.Dim(2)
	iy0, iy1, ix0, ix1 := sp.boxIn(h, w, w*ch, h*w*ch)
	oy0, oy1 := windowRange(iy0, iy1, l.Size, l.Stride, 0, oh)
	ox0, ox1 := windowRange(ix0, ix1, l.Size, l.Stride, 0, ow)
	if oy0 >= oy1 || ox0 >= ox1 {
		return nil, box{}, false
	}
	out := c.goldenCopy(golden)
	maxPoolRegion(x, out, l.Size, l.Stride, oy0, oy1, ox0, ox1)
	return out, box{oy0, oy1, ox0, ox1}, true
}

// segments calls f with the flat range of every part of t the span bounds:
// one range per row of the box, in every batch image, for a boxed span (t is
// rank-4 then) — the flat range [lo,hi) of such a span also covers every full
// row between the box's first and last pixel, about twice the box on a narrow
// map, and all of that equals golden — and the flat range itself otherwise.
func (s span) segments(t *tensor.Tensor, f func(lo, hi int)) {
	if !s.boxed {
		f(s.lo, s.hi)
		return
	}
	h, w, c := t.Dim(1), t.Dim(2), t.Dim(3)
	for b := 0; b < t.Dim(0); b++ {
		for y := s.y0; y < s.y1; y++ {
			row := ((b*h + y) * w) * c
			f(row+s.x0*c, row+s.x1*c)
		}
	}
}

// forwardRegion implements regionSite for Activation (elementwise: the output
// region is the input span itself).
func (l *Activation) forwardRegion(c *Context, x, golden *tensor.Tensor, sp span) (*tensor.Tensor, box, bool) {
	out := c.goldenCopy(golden)
	od, xd := out.Data(), x.Data()
	sp.segments(out, func(lo, hi int) { l.apply(od[lo:hi], xd[lo:hi]) })
	return elementwiseBox(out, sp)
}

// forwardRegion implements regionSite for BatchNorm. A flat span is widened
// to channel-row boundaries so the per-channel scale/shift lookup stays a
// simple index; box segments start and end on them already.
func (l *BatchNorm) forwardRegion(c *Context, x, golden *tensor.Tensor, sp span) (*tensor.Tensor, box, bool) {
	ch := x.Dim(x.Rank() - 1)
	out := c.goldenCopy(golden)
	od, xd := out.Data(), x.Data()
	sp.segments(out, func(lo, hi int) {
		lo -= lo % ch
		hi += (ch - hi%ch) % ch
		l.apply(od[lo:hi], xd[lo:hi], ch)
	})
	return elementwiseBox(out, sp)
}

// elementwiseBox converts an elementwise layer's recomputed input span into
// the forwardRegion return convention: the scan box is the span's own box for
// rank-4 outputs, or the full spatial extent (flat scan) otherwise.
func elementwiseBox(out *tensor.Tensor, sp span) (*tensor.Tensor, box, bool) {
	if out.Rank() != 4 {
		return out, box{}, true
	}
	h, w, c := out.Dim(1), out.Dim(2), out.Dim(3)
	y0, y1, x0, x1 := sp.boxIn(h, w, w*c, h*w*c)
	return out, box{y0, y1, x0, x1}, true
}
