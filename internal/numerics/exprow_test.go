package numerics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// expEdges are the exponents where math.Exp changes what it does: the lanes'
// band edges, the last normal result (−708.4: below it the scaling goes
// through math.Exp's denormal step), the last nonzero one (−745) and the
// overflow threshold (709.78).
var expEdges = []float32{700, -700, -708.4, -745, 709.78}

// expSpecials are the inputs no sweep is sure to meet: signed zeros, NaN, the
// infinities, the float32 subnormals and the largest finite values.
func expSpecials() []float32 {
	return []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		math.MaxFloat32, -math.MaxFloat32}
}

// expProbes returns every float32 bit pattern at a stride of 2¹² in pattern
// order — whole chunks of one band next to each other, so the lanes take most
// of them — then every 2⁹th pattern of the band where the reduction is not
// trivial (|x| from just under ln2/2, where k stops being 0, to expBand), then 2¹³
// consecutive patterns around each of expEdges, then expSpecials.
func expProbes() []float32 {
	var x []float32
	for b := uint64(0); b < 1<<32; b += 1 << 12 {
		x = append(x, math.Float32frombits(uint32(b)))
	}
	for b := math.Float32bits(0.34); b <= math.Float32bits(expBand); b += 1 << 9 {
		x = append(x, math.Float32frombits(b), -math.Float32frombits(b))
	}
	for _, e := range expEdges {
		c := math.Float32bits(e)
		for b := c - 1<<12; b < c+1<<12; b++ {
			x = append(x, math.Float32frombits(b))
		}
	}
	return append(x, expSpecials()...)
}

// checkExpRow holds ExpRow(dst, x, shift) to math.Exp bit for bit, with the
// row starting at two offsets so each input meets two lanes of a chunk.
func checkExpRow(t *testing.T, x []float32, shift float32) {
	t.Helper()
	dst := make([]float64, len(x))
	for _, off := range []int{0, 3} {
		if off > len(x) {
			break
		}
		ExpRow(dst[off:], x[off:], shift)
		for i := off; i < len(x); i++ {
			if want := math.Exp(float64(x[i] - shift)); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("offset %d: ExpRow(%v [%#08x] - %v) = %v [%#016x], math.Exp gives %v [%#016x]", off, x[i],
					math.Float32bits(x[i]), shift, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestExpRowMatchesExp holds ExpRow to math.Exp, bit for bit, with the lanes
// off and on: on expProbes with no shift, and on softmax-shaped rows — logits
// shifted by their maximum — of every length up to 130. With the lanes on it
// also checks that they take an in-band chunk, so a band that closed would
// not pass as the Go loop.
func TestExpRowMatchesExp(t *testing.T) {
	eachDispatch(t, func(t *testing.T) {
		checkExpRow(t, expProbes(), 0)
		rng := rand.New(rand.NewSource(81))
		for n := 1; n <= 130; n++ {
			x := make([]float32, n)
			maxv := float32(math.Inf(-1))
			for i := range x {
				x[i] = float32(rng.NormFloat64() * 30)
				maxv = max(maxv, x[i])
			}
			checkExpRow(t, x, maxv)
			checkExpRow(t, x, -650)
		}
		if hasAVX2 {
			x := make([]float32, 4*laneChunk)
			for i := range x {
				x[i] = float32(i) - 16
			}
			if n := expRowAVX2(make([]float64, len(x)), x, 0); n != len(x) {
				t.Fatalf("the lanes finished %d of %d in-band elements", n, len(x))
			}
		}
	})
}

// FuzzExpRow holds ExpRow to math.Exp on an arbitrary shift and row of float32
// bit patterns, with the lanes off and as detected. The seeds fill whole
// chunks with each band edge and special value, alone and beside in-band
// lanes.
func FuzzExpRow(f *testing.F) {
	vals := append(append([]float32(nil), expEdges...), expSpecials()...)
	for _, v := range vals {
		var same, mixed []byte
		for lane := 0; lane < 2*laneChunk; lane++ {
			same = binary.LittleEndian.AppendUint32(same, math.Float32bits(v))
			w := v
			if lane%3 != 0 {
				w = float32(lane) - 7
			}
			mixed = binary.LittleEndian.AppendUint32(mixed, math.Float32bits(w))
		}
		f.Add(uint32(0), same)
		f.Add(uint32(0), mixed)
		f.Add(math.Float32bits(-v), mixed)
	}
	detected := hasAVX2
	f.Fuzz(func(t *testing.T, shiftBits uint32, data []byte) {
		defer func() { hasAVX2 = detected }()
		shift := math.Float32frombits(shiftBits)
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		dst := make([]float64, len(x))
		for _, lanes := range []bool{false, detected} {
			hasAVX2 = lanes
			ExpRow(dst, x, shift)
			for i, v := range x {
				if want := math.Exp(float64(v - shift)); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("lanes %v: element %d: ExpRow(%#08x - %#08x) = %#016x, math.Exp gives %#016x", lanes, i,
						math.Float32bits(v), shiftBits, math.Float64bits(dst[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// BenchmarkExpRow times the exponentials of one softmax row of 64 logits
// ~ N(0, 3²), shifted by their maximum as tensor.SoftmaxRows shifts them, with
// the lanes off and on.
func BenchmarkExpRow(b *testing.B) {
	rng := rand.New(rand.NewSource(82))
	x, dst := make([]float32, 64), make([]float64, 64)
	maxv := float32(math.Inf(-1))
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 3)
		maxv = max(maxv, x[i])
	}
	eachDispatch(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ExpRow(dst, x, maxv)
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(len(x))), "ns/value")
	})
}
