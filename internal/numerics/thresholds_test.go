package numerics_test

import (
	"math"
	"testing"

	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// TestHalfPanelThresholds holds HalfPanelThresholds to its definition in
// float64 over every weight row of every conv and dense layer of the FP16 zoo
// and over rows made to sit at its edges: for m the smallest nonzero finite
// |w| of the row, t·m ≥ 2⁻²⁴ (never below ⌈2⁻²⁴ / m⌉) and the float32 below t
// falls short (tight to one ulp), both products exact in float64. A row with
// no nonzero finite weight gives 0; the smallest float32 subnormal, the
// largest threshold there is, 2¹²⁵.
func TestHalfPanelThresholds(t *testing.T) {
	check := func(where string, w []float32, stride int) {
		t.Helper()
		thr := numerics.HalfPanelThresholds(w, stride)
		if len(thr) != len(w)/stride {
			t.Fatalf("%s: %d thresholds for %d rows", where, len(thr), len(w)/stride)
		}
		for i, bits := range thr {
			m := math.Inf(1)
			for _, v := range w[i*stride : (i+1)*stride] {
				if a := math.Abs(float64(v)); a != 0 && a < m {
					m = a
				}
			}
			tv := math.Float32frombits(bits)
			switch {
			case math.IsInf(m, 1):
				if bits != 0 {
					t.Fatalf("%s row %d: no nonzero finite weight, threshold %#08x, want 0", where, i, bits)
				}
			case float64(tv)*m < 0x1p-24 || float64(math.Nextafter32(tv, 0))*m >= 0x1p-24:
				t.Fatalf("%s row %d: threshold %g for min |w| %g is not the ceiling of 2⁻²⁴/m", where, i, tv, m)
			}
		}
	}

	rows := 0
	for _, name := range model.Names() {
		wl, err := model.Build(name, numerics.FP16, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range nn.Sites(wl.Net.Root) {
			var w *tensor.Tensor
			switch l := s.(type) {
			case *nn.Conv2D:
				w = l.W
			case *nn.Dense:
				w = l.W
			default:
				continue
			}
			stride := w.Dim(w.Rank() - 1)
			check(name+"/"+s.Name(), s.Codec().RoundSlice(w.Data()), stride)
			rows += w.Size() / stride
		}
	}
	if rows == 0 {
		t.Fatal("the zoo has no conv or dense weight rows")
	}

	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	edges := [][]float32{
		{0, float32(math.Copysign(0, -1)), 0}, // all zero
		{inf, 0, -inf},                        // nothing finite but zeros
		{nan, 0, 0},
		{math.SmallestNonzeroFloat32, 1, -2},
		{-math.MaxFloat32, 3e38, 0},
		{0x1p-24, nan, 1}, // a NaN does not hide the row's finite weights
		{3, 1.0009766, 65504},
		{0.1, -0.3333, 7e-5},
	}
	for _, row := range edges {
		check("edge", row, len(row))
	}
	got := numerics.HalfPanelThresholds([]float32{math.SmallestNonzeroFloat32, 0, 0, 0, 0, 0}, 3)
	if got[0] != math.Float32bits(0x1p125) || got[1] != 0 {
		t.Fatalf("smallest subnormal and all-zero rows: thresholds %#08x, want %#08x and 0", got, math.Float32bits(0x1p125))
	}
}

// TestHalfPanelWeights holds HalfPanelWeights to its definition on every
// half encoding widened to float32, on the float32s one bit either side and
// with the highest bit a half drops flipped, and on powers of two past either
// end of the halves' exponents: the encodings of an all-half slice, element
// for element, and nil for a slice with one element that does not widen back
// to its own bits.
func TestHalfPanelWeights(t *testing.T) {
	var vals []float32
	for h := 0; h < 1<<16; h++ {
		vals = append(vals, numerics.Half(h).Float32())
	}
	for _, p := range []float32{0x1p-26, 0x1p-25, 0x1p16, 0x1p17, 0x1p127} {
		vals = append(vals, p, -p)
	}
	for _, v := range vals {
		for _, b := range []uint32{math.Float32bits(v) - 1, math.Float32bits(v), math.Float32bits(v) + 1, math.Float32bits(v) ^ 0x1000} {
			f := math.Float32frombits(b)
			e := numerics.HalfFromFloat32(f)
			half := math.Float32bits(e.Float32()) == b
			got := numerics.HalfPanelWeights([]float32{1, f})
			switch {
			case half && (len(got) != 2 || got[0] != 0x3c00 || got[1] != uint16(e)):
				t.Fatalf("%#08x is the half %#04x: got %#04x", b, uint16(e), got)
			case !half && got != nil:
				t.Fatalf("%#08x is no half: got %#04x, want nil", b, got)
			}
		}
	}
}
