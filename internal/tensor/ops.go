package tensor

import (
	"fmt"
	"math"

	"fidelity/internal/numerics"
)

// Add returns t + u elementwise. Shapes must match.
func Add(t, u *Tensor) *Tensor {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", t.shape, u.shape))
	}
	out := t.Clone()
	for i := range out.data {
		out.data[i] += u.data[i]
	}
	return out
}

// MatMul panel sizes: one B panel (matMulBlockK × matMulBlockN float32s,
// 128 KiB) plus the touched A and out stripes fit in L2, and the panel is
// reused across every row of A before the next one is loaded.
const (
	matMulBlockK = 128
	matMulBlockN = 256
)

// MatMul computes the matrix product of a (m×k) and b (k×n). Both tensors
// must be rank 2.
//
// The loop is cache-blocked over (k, n) panels of B. For every output
// element the depth index p is still visited in strictly increasing order
// (panels advance outer-to-inner), so the float accumulation order — and
// therefore every bit of the result, NaN payloads excepted — is identical to
// the naive i/p/j loop, which matMulRef preserves as the test oracle.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d and %d differ", k, k2))
	}
	out := New(m, n)
	for p0 := 0; p0 < k; p0 += matMulBlockK {
		p1 := p0 + matMulBlockK
		if p1 > k {
			p1 = k
		}
		for j0 := 0; j0 < n; j0 += matMulBlockN {
			j1 := j0 + matMulBlockN
			if j1 > n {
				j1 = n
			}
			for i := 0; i < m; i++ {
				arow := a.data[i*k+p0 : i*k+p1]
				orow := out.data[i*n+j0 : i*n+j1 : i*n+j1]
				for pi, av := range arow {
					// Skipping av==0 must stay: matMulRef skips it too, and
					// 0*Inf would otherwise turn into NaN under faults.
					if av == 0 {
						continue
					}
					brow := b.data[(p0+pi)*n+j0 : (p0+pi)*n+j1 : (p0+pi)*n+j1]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
	return out
}

// matMulRef is the pre-blocking MatMul loop, frozen as the bit-exactness
// oracle for the property tests.
func matMulRef(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// Softmax applies a numerically stable softmax along the last dimension. The
// result is written into dst and dst returned when dst has t's shape;
// otherwise (a nil dst included) into a new tensor.
func Softmax(dst, t *Tensor) *Tensor {
	if dst == nil || !dst.SameShape(t) {
		dst = t.Clone()
	} else {
		copy(dst.data, t.data)
	}
	SoftmaxRows(dst, 0, dst.Size()/dst.shape[len(dst.shape)-1])
	return dst
}

// softmaxBlock is how many exponentials SoftmaxRows takes from
// numerics.ExpRow at a time, into a block on its stack: a row of any length
// allocates nothing.
const softmaxBlock = 64

// SoftmaxRows replaces rows [r0, r1) of t — its vectors along the last
// dimension — by their softmax, in place; a row's result depends on that row
// alone. The exponentials are math.Exp's bits, through numerics.ExpRow; the
// sum is one float64 chain in index order (DESIGN.md §7.1.6).
func SoftmaxRows(t *Tensor, r0, r1 int) {
	last := t.shape[len(t.shape)-1]
	var block [softmaxBlock]float64
	for r := r0; r < r1; r++ {
		row := t.data[r*last : (r+1)*last]
		maxv := float32(math.Inf(-1))
		for _, x := range row {
			if x > maxv {
				maxv = x
			}
		}
		var sum float64
		for i := 0; i < len(row); i += softmaxBlock {
			part := row[i:min(i+softmaxBlock, len(row))]
			e := block[:len(part)]
			numerics.ExpRow(e, part, maxv)
			for j, v := range e {
				part[j] = float32(v)
				sum += v
			}
		}
		if sum == 0 || math.IsNaN(sum) {
			// Degenerate row (all -Inf or NaN): emit uniform distribution so
			// downstream argmax remains well-defined under faults.
			for i := range row {
				row[i] = 1 / float32(last)
			}
			continue
		}
		for i := range row {
			row[i] /= float32(sum)
		}
	}
}

// Concat concatenates tensors along the given axis. All other dimensions
// must match. The result is written into dst and dst returned when dst has
// the result's shape; otherwise (a nil dst included) into a new tensor.
func Concat(dst *Tensor, axis int, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	first := ts[0].shape
	rank := len(first)
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for rank %d", axis, rank))
	}
	total := first[axis]
	for _, t := range ts[1:] {
		if t.Rank() != rank {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && t.shape[d] != first[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch at dim %d: %v vs %v", d, t.shape, first))
			}
		}
		total += t.shape[axis]
	}
	out := dst
	if !concatShaped(out, first, axis, total) {
		shape := append([]int(nil), first...)
		shape[axis] = total
		out = New(shape...)
	}
	outShape := out.shape

	// Copy block by block: outer = product of dims before axis,
	// inner = product of dims after axis.
	outer := 1
	for d := 0; d < axis; d++ {
		outer *= outShape[d]
	}
	inner := 1
	for d := axis + 1; d < rank; d++ {
		inner *= outShape[d]
	}
	outAxisStride := total * inner
	offset := 0
	for _, t := range ts {
		blk := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			src := t.data[o*blk : (o+1)*blk]
			to := out.data[o*outAxisStride+offset*inner:]
			copy(to[:blk], src)
		}
		offset += t.shape[axis]
	}
	return out
}

// concatShaped reports whether t is non-nil and shaped like first with
// dimension axis widened to total.
func concatShaped(t *Tensor, first []int, axis, total int) bool {
	if t == nil || len(t.shape) != len(first) {
		return false
	}
	for d, n := range first {
		if d == axis {
			n = total
		}
		if t.shape[d] != n {
			return false
		}
	}
	return true
}

// Pad2D zero-pads an NHWC tensor by p rows/cols on each spatial side. When
// dst has the padded shape it must be what an earlier Pad2D by the same p
// returned: its border is zero already, so only the interior is written and
// dst returned. Otherwise (a nil dst included) the result is a new tensor.
func Pad2D(dst, t *Tensor, p int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D requires NHWC rank 4, got %v", t.shape))
	}
	n, h, w, c := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	out := dst
	if out == nil || !out.hasShape(n, h+2*p, w+2*p, c) {
		out = New(n, h+2*p, w+2*p, c)
	}
	row, pw := w*c, w+2*p
	for b := 0; b < n; b++ {
		for y := 0; y < h; y++ {
			src := (b*h + y) * row
			to := ((b*(h+2*p)+y+p)*pw + p) * c
			copy(out.data[to:to+row], t.data[src:src+row])
		}
	}
	return out
}
