package nn

// region.go extends the replay engine with dirty-region tracking: when a
// recomputed layer differs from golden, the replay context records a
// conservative bound (a box of grid positions) on *which elements* differ,
// and downstream layers that support it recompute only the output region
// those elements can reach, copying everything else from their golden output.
// For a single-site fault in a deep CNN the dirty region is a few rows tall,
// so a suffix layer costs O(region) instead of O(layer).
//
// Bit-exactness argument: a region-capable layer computes each output neuron
// with the same tiled kernel (same accumulation order, same rounding) as the
// full forward pass, and every neuron it does not compute is copied from the
// golden output. Neurons outside the mapped output region read only input
// elements outside the recorded input box, which are bit-equal to golden by
// the box invariant — so recomputing them would reproduce the golden value
// exactly, and the copy is indistinguishable from recomputation. The box
// invariant itself is maintained by scanning: every recomputed output is
// diffed against golden (the scan replay already paid for convergence
// detection), and the recorded box covers all differing elements.

import (
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// box is the spatial region [y0,y1)×[x0,x1) (all channels) of a rank-4 NHWC
// tensor, or the rows [y0,y1) of a rank-2 one (x0, x1 = 0, 1, as grid views
// it). It is both what a dirty output records and what a sweep recomputes.
// The zero box stands for "the whole tensor", whatever its rank.
type box struct{ y0, y1, x0, x1 int }

// grid views t as h×w positions, each a vector of c elements along its last
// axis: NHWC at rank 4 and (rows, 1, cols) at rank 2. A rank-4 tensor is one
// image — Conv2D and the pools refuse any other — so its batch axis simply
// folds into the rows, which keeps an element-wise step over a batch correct.
// ok is false at any other rank.
func grid(t *tensor.Tensor) (h, w, c int, ok bool) {
	switch t.Rank() {
	case 4:
		return t.Dim(0) * t.Dim(1), t.Dim(2), t.Dim(3), true
	case 2:
		return t.Dim(0), 1, t.Dim(1), true
	}
	return 0, 0, 0, false
}

// runs calls f with every run [p0, p1) of consecutive positions of t (flat
// over grid's h, w) inside the box: one run per box row, or one in all when
// the box spans whole rows.
func (b box) runs(t *tensor.Tensor, f func(p0, p1 int)) {
	_, w, _, _ := grid(t)
	if b.x0 == 0 && b.x1 == w {
		f(b.y0*w, b.y1*w)
		return
	}
	for y := b.y0; y < b.y1; y++ {
		f(y*w+b.x0, y*w+b.x1)
	}
}

// diffFlat scans elements [lo, hi) of out against golden — all of them, or
// the rows a rank-2 sweep recomputed, everything outside being a golden
// copy — and returns the box of the positions that differ: at rank 4 the rows
// and columns holding a difference (boxify), at rank 2 the rows of the first
// and last difference. equal is true (and the box meaningless) when none
// differ. At a rank grid does not view, the box is the zero box: no region is
// known, and whatever reads the output computes in full.
func diffFlat(out, golden *tensor.Tensor, lo, hi int) (b box, equal bool) {
	od, gd := out.Data(), golden.Data()
	first, last := numerics.DiffEnds(od[lo:hi], gd[lo:hi])
	if last < 0 {
		return box{}, true
	}
	switch out.Rank() {
	case 4:
		return boxify(od, gd, lo+first, lo+last+1, out.Dim(2), out.Dim(3)), false
	case 2:
		cols := out.Dim(1)
		return box{y0: (lo + first) / cols, y1: (lo+last)/cols + 1, x1: 1}, false
	}
	return box{}, false
}

// boxify tightens the flat range [lo, hi) of a rank-4 NHWC buffer, whose
// first and last elements differ, into a box: the rows of the range — its
// first and last hold a difference — and the columns between the leftmost
// first and the rightmost last difference of any row (numerics.DiffEnds scans
// a row from both ends inwards: the interior of a dirty row is never read).
// The ends are kept as element offsets into their rows and turned into
// columns once: division by c is monotone, so the column of the leftmost
// offset is the leftmost column.
func boxify(od, gd []float32, lo, hi, w, c int) box {
	rowStride := w * c
	left, right := rowStride, -1
	for r := lo / rowStride; r*rowStride < hi; r++ {
		row := r * rowStride
		rlo, rhi := max(lo, row), min(hi, row+rowStride)
		first, last := numerics.DiffEnds(od[rlo:rhi], gd[rlo:rhi])
		if last >= 0 {
			left, right = min(left, rlo-row+first), max(right, rlo-row+last)
		}
	}
	return box{lo / rowStride, (hi-1)/rowStride + 1, left / c, right/c + 1}
}

// diffBox scans only the given box of a rank-4 tensor (the region a sweep
// recomputed; everything outside is a golden copy by construction) and returns
// the tightened box of differing positions, each row of the box scanned from
// both ends inwards and its columns found once, as in boxify.
func diffBox(out, golden *tensor.Tensor, bx box) (b box, equal bool) {
	od, gd := out.Data(), golden.Data()
	w, c := out.Dim(2), out.Dim(3)
	width := (bx.x1 - bx.x0) * c
	y0, y1, left, right := bx.y1, 0, width, -1 // left, right: offsets into a row of the box
	for y := bx.y0; y < bx.y1; y++ {
		base := (y*w + bx.x0) * c
		first, last := numerics.DiffEnds(od[base:base+width], gd[base:base+width])
		if last < 0 {
			continue
		}
		y0, y1 = min(y0, y), max(y1, y+1)
		left, right = min(left, first), max(right, last)
	}
	if right < 0 {
		return box{}, true
	}
	return box{y0, y1, bx.x0 + left/c, bx.x0 + right/c + 1}, false
}

// dirtyOut is one entry of Context.dirty: a dirty output of the replayed pass
// and the box that bounds its differences from golden.
type dirtyOut struct {
	t   *tensor.Tensor
	box box
}

// region returns the box recorded for t in this pass, searching from the
// newest entry (what a layer reads was, most often, recorded last). ok is
// false when t has none: a golden tensor, a tensor no replayed execution
// produced (the LSTM's hidden state, a view), or one of a rank grid does not
// view.
func (c *Context) region(t *tensor.Tensor) (b box, ok bool) {
	for i := len(c.dirty) - 1; i >= 0; i-- {
		if c.dirty[i].t == t {
			return c.dirty[i].box, true
		}
	}
	return box{}, false
}

// glueRegion returns the union of a glue step's dirty inputs' recorded boxes,
// each in out's positions. ok is false — the step computes in full — when out
// is neither rank 4 nor rank 2, or a dirty input has no recorded box or not
// out's positions (a concat along any but the last axis).
func (c *Context) glueRegion(out *tensor.Tensor, in []*tensor.Tensor) (r box, ok bool) {
	h, w, _, ok := grid(out)
	if !ok {
		return box{}, false
	}
	r = box{y0: h, x0: w}
	for _, t := range in {
		if t == nil || c.trace.golden[t] {
			continue
		}
		b, known := c.region(t)
		th, tw, _, _ := grid(t)
		if !known || th != h || tw != w {
			return box{}, false
		}
		r = box{min(r.y0, b.y0), max(r.y1, b.y1), min(r.x0, b.x0), max(r.x1, b.x1)}
	}
	return r, true
}

// regionSite is implemented by layers that can recompute just the output
// region reached by a dirty input box. forwardRegion returns the output tensor
// (seeded from golden outside the region) plus the output box it recomputed;
// ok is false when the dirty box maps to no output element (e.g. it falls off
// a stride lattice), meaning the golden output stands.
type regionSite interface {
	forwardRegion(c *Context, x, golden *tensor.Tensor, b box) (out *tensor.Tensor, swept box, ok bool)
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
func (l *Conv2D) forwardRegion(c *Context, x, golden *tensor.Tensor, b box) (*tensor.Tensor, box, bool) {
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := golden.Dim(1), golden.Dim(2)
	oy0, oy1 := windowRange(b.y0, b.y1, l.KH, l.Stride, l.Pad, oh)
	ox0, ox1 := windowRange(b.x0, b.x1, l.KW, l.Stride, l.Pad, ow)
	if oy0 >= oy1 || ox0 >= ox1 {
		return nil, box{}, false
	}
	out := c.goldenCopy(golden)

	// Round only the input rows the output box reads. For FP32 rounding is
	// the identity, so the input buffer is used directly.
	rin, rinOff := x.Data(), 0
	var scratch *tensor.Tensor
	if l.codec.Precision() != numerics.FP32 {
		wy0 := max(oy0*l.Stride-l.Pad, 0)
		wy1 := min((oy1-1)*l.Stride+l.KH-l.Pad, h)
		rowStride := w * l.InC
		scratch = c.arena.get((wy1 - wy0) * rowStride)
		rin = scratch.Data()
		l.codec.RoundInto(rin, x.Data()[wy0*rowStride:wy1*rowStride])
		rinOff = wy0 * rowStride
	}

	args := l.kernelArgs(&c.sc.cargs, x, out, rin, rinOff)
	c.sc.accs = grow(c.sc.accs, args.outC)
	convTile(args, oy0, oy1, ox0, ox1, c.sc.accs)
	if scratch != nil {
		c.arena.release(scratch)
	}
	return out, box{oy0, oy1, ox0, ox1}, true
}

// forwardRegion implements regionSite for MaxPool.
func (l *MaxPool) forwardRegion(c *Context, x, golden *tensor.Tensor, b box) (*tensor.Tensor, box, bool) {
	oh, ow := golden.Dim(1), golden.Dim(2)
	oy0, oy1 := windowRange(b.y0, b.y1, l.Size, l.Stride, 0, oh)
	ox0, ox1 := windowRange(b.x0, b.x1, l.Size, l.Stride, 0, ow)
	if oy0 >= oy1 || ox0 >= ox1 {
		return nil, box{}, false
	}
	out := c.goldenCopy(golden)
	maxPoolRegion(x, out, l.Size, l.Stride, oy0, oy1, ox0, ox1)
	return out, box{oy0, oy1, ox0, ox1}, true
}

// forwardRegion implements regionSite for Activation (elementwise: the output
// region is the input box itself, swept a run of positions at a time).
func (l *Activation) forwardRegion(c *Context, x, golden *tensor.Tensor, b box) (*tensor.Tensor, box, bool) {
	out := c.goldenCopy(golden)
	od, xd, ch := out.Data(), x.Data(), out.Dim(out.Rank()-1)
	b.runs(out, func(p0, p1 int) { l.apply(od[p0*ch:p1*ch], xd[p0*ch:p1*ch]) })
	return out, b, true
}

// forwardRegion implements regionSite for BatchNorm, as for Activation: a run
// of positions starts and ends on channel-row boundaries, so the per-channel
// scale/shift lookup stays a simple index.
func (l *BatchNorm) forwardRegion(c *Context, x, golden *tensor.Tensor, b box) (*tensor.Tensor, box, bool) {
	out := c.goldenCopy(golden)
	od, xd, ch := out.Data(), x.Data(), out.Dim(out.Rank()-1)
	b.runs(out, func(p0, p1 int) { l.apply(od[p0*ch:p1*ch], xd[p0*ch:p1*ch], ch) })
	return out, b, true
}
