package numerics

// exprow.go holds the exponential row of the softmax: ExpRow and its Go loop.
// Where hasAVX2 is set, exprow_amd64.s takes whole 8-element chunks through a
// lane copy of the FMA path of math.Exp's own amd64 assembly, so a lane and
// the Go loop store the same bits (DESIGN.md §7.8). The lanes run only on
// chunks whose every exponent lies in [-expBand, expBand], where that path
// takes no branch; a chunk with a lane outside it — NaN, ±Inf, an overflow, an
// underflow to a subnormal or zero — stops them, the Go loop does that chunk,
// and the lanes resume behind it, as halfRoundInto does. The Go loop is also
// every tail, the whole implementation where there are no lanes, and the
// oracle of TestExpRowMatchesExp.

import "math"

// expBand bounds |x - shift| for the lanes: e^±700 is a normal float64, and
// round(±700·log₂e) + 1023 stays inside the exponent field, so math.Exp's
// scaling by 2^k needs neither its subnormal step nor its overflow test.
const expBand = 700

// ExpRow stores math.Exp(float64(x[i]-shift)) in dst[i] for every i in x, the
// difference taken in float32 as the softmax takes it. dst must be at least as
// long as x.
func ExpRow(dst []float64, x []float32, shift float32) {
	dst = dst[:len(x)]
	if hasAVX2 {
		n := expRowAVX2(dst, x, shift)
		for n+laneChunk <= len(x) {
			expRowGo(dst[n:n+laneChunk], x[n:n+laneChunk], shift)
			n += laneChunk
			n += expRowAVX2(dst[n:], x[n:], shift)
		}
		dst, x = dst[n:], x[n:]
	}
	expRowGo(dst, x, shift)
}

func expRowGo(dst []float64, x []float32, shift float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(float64(v - shift))
	}
}
