package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fidelity/internal/numerics"
)

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || x.Rank() != 3 {
		t.Fatalf("size/rank = %d/%d", x.Size(), x.Rank())
	}
	x.Set(7, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7 {
		t.Errorf("At(1,2,3) = %v", got)
	}
	if off := x.Offset(1, 2, 3); off != 23 {
		t.Errorf("Offset(1,2,3) = %d, want 23", off)
	}
	if x.Dim(1) != 3 {
		t.Errorf("Dim(1) = %d", x.Dim(1))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(2, 0)
}

func TestOffsetPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range index should panic")
		}
	}()
	x.At(2, 0)
}

func TestFromSliceAndReshape(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", x.At(1, 2))
	}
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Errorf("reshaped At(2,1) = %v", y.At(2, 1))
	}
	// Views share data.
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Error("Reshape should share backing data")
	}
}

func TestReshapeInPlace(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	x.ReshapeInPlace(1, 3, 2)
	if x.Rank() != 3 || x.At(0, 2, 1) != 6 || x.Offset(0, 1, 0) != 2 {
		t.Errorf("after ReshapeInPlace(1,3,2): shape %v, At(0,2,1) = %v", x.Shape(), x.At(0, 2, 1))
	}
	x.ReshapeInPlace(6)
	if x.Rank() != 1 || x.At(5) != 6 {
		t.Errorf("after ReshapeInPlace(6): shape %v", x.Shape())
	}
	if got := testing.AllocsPerRun(10, func() { x.ReshapeInPlace(3, 2) }); got != 0 {
		t.Errorf("ReshapeInPlace within the rank already held: %v allocs, want 0", got)
	}
	for _, bad := range [][]int{{4}, {2, 0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReshapeInPlace(%v) of 6 elements did not panic", bad)
				}
			}()
			x.ReshapeInPlace(bad...)
		}()
	}
}

// TestAtSetAllocateNothing holds the accessors' variadic index on the
// caller's stack: Offset's panic message formats a copy of it, so that it
// does not escape (a dataset sample is hundreds of Set calls).
func TestAtSetAllocateNothing(t *testing.T) {
	x := New(2, 3, 4)
	i, j, k := 1, 2, 3
	if got := testing.AllocsPerRun(100, func() { x.Set(x.At(i, j, k)+1, i, j, k) }); got != 0 {
		t.Errorf("At and Set: %v allocs, want 0", got)
	}
	defer func() {
		if msg, _ := recover().(string); msg != "tensor: index [1 3 3] out of range for shape [2 3 4]" {
			t.Errorf("out-of-range At panicked with %q", msg)
		}
	}()
	x.At(1, 3, 3)
}

func TestUnflattenRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		idx := []int{rng.Intn(3), rng.Intn(4), rng.Intn(5)}
		off := x.Offset(idx...)
		back := x.Unflatten(off)
		for d := range idx {
			if back[d] != idx[d] {
				t.Fatalf("Unflatten(%d) = %v, want %v", off, back, idx)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Error("Clone must not share data")
	}
}

func TestArgMaxAndMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2, -5}, 4)
	if x.ArgMax() != 2 {
		t.Errorf("ArgMax = %d", x.ArgMax())
	}
	if x.MaxAbs() != 5 {
		t.Errorf("MaxAbs = %v", x.MaxAbs())
	}
	nan := FromSlice([]float32{float32(math.NaN()), 1}, 2)
	if nan.ArgMax() != 1 {
		t.Errorf("ArgMax with NaN = %d, want 1", nan.ArgMax())
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.5, 3}, 3)
	if a.Equal(b) {
		t.Error("a should not equal b")
	}
	if d := a.DiffIndices(b, 0.1); len(d) != 1 || d[0] != 1 {
		t.Errorf("DiffIndices = %v", d)
	}
	if d := a.DiffIndices(b, 1); len(d) != 0 {
		t.Errorf("DiffIndices tol=1 = %v", d)
	}
	nan := float32(math.NaN())
	c := FromSlice([]float32{1, nan, 3}, 3)
	d := FromSlice([]float32{1, nan, 3}, 3)
	if !c.Equal(d) {
		t.Error("NaN at same position should compare equal")
	}
	if diffs := a.DiffIndices(c, 0); len(diffs) != 1 || diffs[0] != 1 {
		t.Errorf("NaN vs number should diff: %v", diffs)
	}
}

// Equal is the exact-match verdict Validate takes from DiffIndices(u, 0):
// NaN equals NaN whatever its sign and payload, +0 equals -0, each infinity
// equals itself.
func TestEqualMatchesEmptyDiff(t *testing.T) {
	inf := math.Inf(1)
	edges := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // quiet NaNs, both signs
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345), // payloads
		0, float32(math.Copysign(0, -1)), float32(inf), float32(-inf),
		math.Float32frombits(1), math.Float32frombits(0x80000001), math.SmallestNonzeroFloat32 * 3, // float32 subnormals
		5.9604645e-08, -6.097555e-05, // FP16 subnormals
		math.MaxFloat32, 65504, -65504,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		edges = append(edges, numerics.RoundHalf(float32(rng.NormFloat64())))
	}
	check := func(a, b *Tensor) {
		t.Helper()
		want := len(a.DiffIndices(b, 0)) == 0
		if a.Equal(b) != want || b.Equal(a) != want {
			t.Fatalf("%v vs %v: Equal %v, %v; DiffIndices empty %v", a.Data(), b.Data(), a.Equal(b), b.Equal(a), want)
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			check(FromSlice([]float32{x}, 1), FromSlice([]float32{y}, 1))
		}
	}
	// Longer tensors, equal but for the odd element.
	for trial := 0; trial < 500; trial++ {
		a, b := New(4), New(4)
		for j := range a.Data() {
			a.Data()[j] = edges[rng.Intn(len(edges))]
			b.Data()[j] = a.Data()[j]
		}
		if rng.Intn(2) == 0 {
			b.Data()[rng.Intn(4)] = edges[rng.Intn(len(edges))]
		}
		check(a, b)
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 5}, 2)
	if got := Add(a, b); got.At(0) != 4 || got.At(1) != 7 {
		t.Errorf("Add = %v", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func transpose(t *Tensor) *Tensor {
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(t.At(i, j), j, i)
		}
	}
	return out
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(m, k), New(k, n)
		a.RandNormal(rng, 1)
		b.RandNormal(rng, 1)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		if len(lhs.DiffIndices(rhs, 1e-4)) != 0 {
			t.Fatalf("transpose property violated for %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched inner dims should panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestSoftmaxProperties(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	s := Softmax(nil, x)
	if Softmax(s, x) != s || Softmax(New(3, 2), x) == s {
		t.Error("Softmax must write a dst of t's shape and no other")
	}
	for r := 0; r < 2; r++ {
		var sum float32
		for j := 0; j < 3; j++ {
			v := s.At(r, j)
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(float64(sum-1)) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", r, sum)
		}
	}
	// Monotonicity within a row.
	if !(s.At(0, 0) < s.At(0, 1) && s.At(0, 1) < s.At(0, 2)) {
		t.Error("softmax should preserve order")
	}
}

func TestSoftmaxDegenerateRow(t *testing.T) {
	inf := float32(math.Inf(-1))
	x := FromSlice([]float32{inf, inf, inf}, 1, 3)
	s := Softmax(nil, x)
	for j := 0; j < 3; j++ {
		if got := s.At(0, j); math.Abs(float64(got)-1.0/3) > 1e-6 {
			t.Errorf("degenerate softmax[%d] = %v, want 1/3", j, got)
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 1, 2, 2)
	c := Concat(nil, 2, a, b) // channels
	if c.Dim(2) != 4 {
		t.Fatalf("concat dim = %d", c.Dim(2))
	}
	dst := New(1, 2, 4)
	dst.Fill(9)
	want := []float32{1, 2, 5, 6, 3, 4, 7, 8}
	for _, got := range []*Tensor{c, Concat(dst, 2, a, b)} {
		for i, w := range want {
			if got.Data()[i] != w {
				t.Errorf("Concat[%d] = %v, want %v", i, got.Data()[i], w)
			}
		}
	}
	if Concat(dst, 2, a, b) != dst || Concat(dst, 1, a, b) == dst {
		t.Error("Concat must write a dst of the result's shape and no other")
	}
	c0 := Concat(nil, 0, a, b)
	if c0.Dim(0) != 2 || c0.At(1, 0, 0) != 5 {
		t.Errorf("Concat axis 0 wrong: %v", c0)
	}
}

func TestPad2D(t *testing.T) {
	x := New(1, 2, 2, 1)
	x.Fill(3)
	p := Pad2D(nil, x, 1)
	if p.Dim(1) != 4 || p.Dim(2) != 4 {
		t.Fatalf("pad shape = %v", p.Shape())
	}
	if p.At(0, 0, 0, 0) != 0 || p.At(0, 1, 1, 0) != 3 || p.At(0, 3, 3, 0) != 0 {
		t.Error("padding content wrong")
	}
	// A dst an earlier Pad2D returned gets its interior rewritten, and only a
	// dst of the padded shape is reused.
	x.Fill(5)
	if Pad2D(p, x, 1) != p || p.At(0, 0, 0, 0) != 0 || p.At(0, 2, 2, 0) != 5 {
		t.Error("Pad2D into its own earlier result: wrong buffer or content")
	}
	if Pad2D(p, x, 2) == p {
		t.Error("Pad2D reused a dst of another shape")
	}
	// Property: padded sum equals original sum.
	sum := func(t *Tensor) (s float64) {
		for _, v := range t.Data() {
			s += float64(v)
		}
		return s
	}
	if sum(p) != sum(x) {
		t.Errorf("pad changed sum: %v vs %v", sum(p), sum(x))
	}
}

// Property: Fill then MaxAbs returns |v|.
func TestFillMaxAbsProperty(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		x := New(3, 3)
		x.Fill(v)
		return x.MaxAbs() == float32(math.Abs(float64(v)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	small := New(2, 2)
	if s := small.String(); s == "" {
		t.Error("empty String for small tensor")
	}
	big := New(10, 10)
	if s := big.String(); s == "" {
		t.Error("empty String for big tensor")
	}
}
