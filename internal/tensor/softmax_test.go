package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname
)

// numericsHasAVX2 is numerics' unexported dispatch seam: true when its row
// primitives, numerics.ExpRow among them, run their AVX2 lanes on this
// machine.
//
//go:linkname numericsHasAVX2 fidelity/internal/numerics.hasAVX2
var numericsHasAVX2 bool

// softmaxRowsScalar is SoftmaxRows before numerics.ExpRow: one math.Exp call
// per element, stored and summed in index order. It is the oracle of
// TestSoftmaxRowsMatchScalar.
func softmaxRowsScalar(t *Tensor, r0, r1 int) {
	last := t.shape[len(t.shape)-1]
	for r := r0; r < r1; r++ {
		row := t.data[r*last : (r+1)*last]
		maxv := float32(math.Inf(-1))
		for _, x := range row {
			if x > maxv {
				maxv = x
			}
		}
		var sum float64
		for i, x := range row {
			e := math.Exp(float64(x - maxv))
			row[i] = float32(e)
			sum += e
		}
		if sum == 0 || math.IsNaN(sum) {
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

// TestSoftmaxRowsMatchScalar holds SoftmaxRows to softmaxRowsScalar bit for
// bit, with numerics' lanes off and as detected: on generated rows of every
// length from 1 to 130 (tails, and more than one block of softmaxBlock), at
// spreads from attention-sized logits to ones whose chunks leave the lanes'
// band, and on the degenerate rows — all -Inf, a NaN, a +Inf — a 1e30 outlier
// that sends every chunk to the Go loop, ±0 ties for the maximum, and a row
// whose sum takes its float32 value only in index order. Each tensor has three
// rows and only the middle one is replaced.
func TestSoftmaxRowsMatchScalar(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	rows := map[string][]float32{
		"all-neg-inf": {-inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf},
		"nan":         {1, 2, nan, 3, 4, 5, 6, 7, 8, 9},
		"pos-inf":     {1, 2, 3, 4, inf, 5, 6, 7, 8, 9, 10, 11},
		"zero-ties":   {negZero, 0, -1, negZero, -2, 0, -0.5, negZero, 0, -3},
	}
	// The exact sum of this row's exponentials lies half a float64 ulp from a
	// float32 rounding midpoint (found by search), so the float64 sum in
	// index order rounds to another float32 than the same sum taken with 2, 4
	// or 8 accumulators, as a tree, back to front or by 8-element partials.
	// A lane-parallel sum fails here; random rows almost never show it.
	var ordered []float32
	for _, b := range []uint32{0, 0xc012e843, 0xbf805f87,
		0xc01acb04, 0xc070c534, 0xc02a209c, 0xbfe01c13, 0xbfd96a16, 0xc02fd3a3, 0xbe866cb4,
		0xbf204695, 0xbec697f5, 0xbf9a111f, 0xc003e4fa, 0xc0504ab5, 0xbf5b67fd, 0xbfc2e580,
		0xbfa2d885, 0xbff01254, 0xbf90e9da, 0xbf961172, 0xc02dd87e, 0xbf5fcc5f, 0xbf501038} {
		ordered = append(ordered, math.Float32frombits(b))
	}
	rows["order-sensitive-sum"] = ordered
	rng := rand.New(rand.NewSource(91))
	outlier := make([]float32, 40)
	for i := range outlier {
		outlier[i] = float32(rng.NormFloat64())
	}
	outlier[17] = 1e30
	rows["outlier"] = outlier
	for n := 1; n <= 130; n++ {
		for _, sd := range []float64{1, 30, 400} {
			row := make([]float32, n)
			for i := range row {
				row[i] = float32(rng.NormFloat64() * sd)
			}
			rows[fmt.Sprintf("n%d/sd%g", n, sd)] = row
		}
	}
	detected := numericsHasAVX2
	defer func() { numericsHasAVX2 = detected }()
	for _, lanes := range []bool{false, detected} {
		numericsHasAVX2 = lanes
		for name, row := range rows {
			n := len(row)
			data := make([]float32, 3*n)
			for i := range data {
				data[i] = float32(i%7) - 3
			}
			copy(data[n:], row)
			want := FromSlice(append([]float32(nil), data...), 3, n)
			softmaxRowsScalar(want, 1, 2)
			got := FromSlice(data, 3, n)
			SoftmaxRows(got, 1, 2)
			for i, w := range want.data {
				if g := got.data[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("lanes %v, %s: element %d = %v [%#08x], the scalar loop gives %v [%#08x]", lanes, name, i,
						g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
}
