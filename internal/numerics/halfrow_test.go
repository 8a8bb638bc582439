package numerics

import (
	"math"
	"testing"
)

// TestAccumulatorNeverNegativeZero pins the invariant the kernels' zero-
// activation skip rests on: an accumulator that starts at +0 and only ever
// has values added to it never holds -0, whatever is added — -0 itself, a
// value and its negation, the smallest subnormals — because under round-to-
// nearest x + y is -0 only when both x and y are. So "acc += ±0" never
// changes acc, and leaving it out changes no bit.
func TestAccumulatorNeverNegativeZero(t *testing.T) {
	eachDispatch(t, legsOf(false, false), testAccumulatorNeverNegativeZero)
}

func testAccumulatorNeverNegativeZero(t *testing.T) {
	negZero := math.Float32frombits(f32Sign)
	tiny := math.Float32frombits(1) // smallest float32 subnormal
	addends := []float32{0, negZero, tiny, -tiny, 5.9604645e-08, -5.9604645e-08, 1, -1, 65504, -65504,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	// Every sequence of four addends, through plain addition and through each
	// accumulating primitive. The rows are a chunk and a tail wide, every
	// element taking the same sequence, so each lane is held to it as well;
	// the dot form takes the addend first in a row of zeros, the run form the
	// sequence so far as its taps.
	const width = laneChunk + 1
	ones, vs, dots := filled(4*width, 1), make([]float32, 4*width), make([]float32, width)
	n := len(addends)
	for code := 0; code < n*n*n*n; code++ {
		var plain float32
		row, vec := make([]float32, width), make([]float32, width)
		var dot float32
		for c, step := code, 0; step < 4; c, step = c/n, step+1 {
			v := addends[c%n]
			before := plain
			plain += v
			for i := step * width; i < (step+1)*width; i++ {
				vs[i] = v
			}
			dots[0] = v
			HalfMulAddRow(row, v, ones[:width])
			HalfMulAddVec(vec, vs, ones, VecRun{Stride: width, Taps: step + 1, Rows: 1})
			dot = HalfDot(dot, dots, ones[:width])
			for _, accs := range [][]float32{{plain, dot}, row, vec} {
				for _, acc := range accs {
					if math.Float32bits(acc) == f32Sign {
						t.Fatalf("sequence %d step %d: accumulator is -0 after adding %v", code, step, v)
					}
				}
			}
			if v == 0 && !sameBits(plain, before) {
				t.Fatalf("sequence %d step %d: adding %#08x changed the accumulator from %#08x to %#08x",
					code, step, math.Float32bits(v), math.Float32bits(before), math.Float32bits(plain))
			}
		}
	}
	// A ±0 activation against a finite weight row is a row of ±0 products.
	for _, a := range []float32{0, negZero} {
		acc := []float32{0, 0, 0.5, -0.5, 0, 0, 0.5, -0.5, 0}
		HalfMulAddRow(acc, a, []float32{3, -3, 65504, -5.9604645e-08, -3, 3, -65504, 5.9604645e-08, 1})
		for i, want := range []float32{0, 0, 0.5, -0.5, 0, 0, 0.5, -0.5, 0} {
			if !sameBits(acc[i], want) {
				t.Errorf("%#08x × finite row: acc[%d] = %#08x, want %#08x unchanged",
					math.Float32bits(a), i, math.Float32bits(acc[i]), math.Float32bits(want))
			}
		}
	}
}
