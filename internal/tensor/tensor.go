// Package tensor implements the dense multi-dimensional arrays used by the
// DNN substrate. Tensors are float32-backed with row-major layout; image
// tensors use NHWC order (batch, height, width, channel), matching the output
// neuron coordinate system (batch, height, width, channel) of the paper's
// Reuse Factor Analysis.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New allocates a zero tensor of the given shape. Every dimension must be
// positive.
func New(shape ...int) *Tensor {
	n := volume(shape)
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
	t.strides = computeStrides(nil, t.shape)
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := volume(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), append([]int(nil), shape...), n))
	}
	t := &Tensor{shape: append([]int(nil), shape...), data: data}
	t.strides = computeStrides(nil, t.shape)
	return t
}

// volume returns the element count of shape; every dimension must be
// positive. The panic messages here and below format a copy of shape, so the
// variadic shape of a caller on the replay path stays on its stack.
func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// computeStrides returns the row-major strides of shape, written over dst
// when it has the capacity.
func computeStrides(dst, shape []int) []int {
	strides := append(dst[:0], shape...)
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Offset converts a multi-index to a flat offset, panicking on out-of-range
// indices.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(t.outOfRange(idx))
		}
		off += x * t.strides[i]
	}
	return off
}

// outOfRange is Offset's panic message. It formats a copy of idx, so that
// the index of an At or Set call does not escape and stays on the caller's
// stack.
func (t *Tensor) outOfRange(idx []int) string {
	return fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.shape)
}

// At returns the element at a multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.Offset(idx...)] }

// Set stores v at a multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy. Its buffer is written once, by the copy: New
// would zero it first.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		shape: append([]int(nil), t.shape...),
		data:  append(t.data[:0:0], t.data...),
	}
	c.strides = computeStrides(nil, c.shape)
	return c
}

// Reshape returns a view with a new shape of the same volume, sharing data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), shape))
	}
	return FromSlice(t.data, shape...)
}

// ReshapeInPlace gives t itself a new shape of the same volume, rewriting the
// shape and strides it already holds (nothing is allocated when the rank does
// not grow). Unlike Reshape it invalidates every Shape() slice handed out
// before, so it is only for an owner recycling a tensor nobody else
// references — the replay arena's free list.
func (t *Tensor) ReshapeInPlace(shape ...int) {
	if volume(shape) != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), append([]int(nil), shape...)))
	}
	t.shape = append(t.shape[:0], shape...)
	t.strides = computeStrides(t.strides, t.shape)
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool { return t.hasShape(u.shape...) }

// hasShape reports whether t has exactly the given shape.
func (t *Tensor) hasShape(shape ...int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, x := range t.data {
		t.data[i] = f(x)
	}
}

// RandNormal fills the tensor with N(0, stddev²) values from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, stddev float32) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()) * stddev
	}
}

// MaxAbs returns the largest absolute element value (0 for all-zero tensors;
// NaNs are ignored).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, x := range t.data {
		a := float32(math.Abs(float64(x)))
		if a > m && !math.IsNaN(float64(a)) {
			m = a
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element. For DNN classifier
// outputs this is the predicted label. NaN elements never win.
func (t *Tensor) ArgMax() int {
	best, bestv := 0, float32(math.Inf(-1))
	for i, x := range t.data {
		if x > bestv {
			best, bestv = i, x
		}
	}
	return best
}

// Equal reports whether t and u have the same shape and identical elements.
// NaN elements compare equal to NaN at the same position.
func (t *Tensor) Equal(u *Tensor) bool {
	if !t.SameShape(u) {
		return false
	}
	for i := range t.data {
		a, b := t.data[i], u.data[i]
		if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
			return false
		}
	}
	return true
}

// DiffIndices returns the flat indices where t and u differ by more than tol
// (or where exactly one of the two is NaN). It panics if shapes differ.
func (t *Tensor) DiffIndices(u *Tensor, tol float32) []int {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	var diffs []int
	for i := range t.data {
		a, b := float64(t.data[i]), float64(u.data[i])
		if math.IsNaN(a) != math.IsNaN(b) {
			diffs = append(diffs, i)
			continue
		}
		if math.IsNaN(a) {
			continue
		}
		if math.Abs(a-b) > float64(tol) {
			diffs = append(diffs, i)
		}
	}
	return diffs
}

// Unflatten converts a flat offset back to a multi-index.
func (t *Tensor) Unflatten(off int) []int {
	if off < 0 || off >= len(t.data) {
		panic(fmt.Sprintf("tensor: offset %d out of range for size %d", off, len(t.data)))
	}
	idx := make([]int, len(t.shape))
	for i := range t.shape {
		idx[i] = off / t.strides[i]
		off %= t.strides[i]
	}
	return idx
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elements, maxAbs=%g]", t.shape, len(t.data), t.MaxAbs())
}
