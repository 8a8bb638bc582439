//go:build !amd64

package numerics

// No lanes off amd64: the three selectors stay false and the Go loops of
// halfrow.go are the whole implementation. The routines below only complete
// the call sites, and "finished no element" — from the panels "stored no
// column", from the run "stored no pixel" — is a correct answer from them.
var hasAVX2, hasAVX512, hasAVX512FP16 = false, false, false

func halfMulAddRowAVX2(acc []float32, a float32, w []float32) int { return 0 }

func halfMulAddPanelAVX2(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool) {
	return len(acc), false
}

func halfMulAddPanelAVX512(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool) {
	return len(acc), false
}

func halfMulAddPanelAVX512FP16(acc, a, w []float32, wh []uint16, stride int, thr []uint32, g PanelRun) (n int, ok bool) {
	return len(acc), false
}

func halfMulAddVecAVX2(out, a, w, bias []float32, g VecRun, finish bool) (n, done int) {
	return len(out) - (g.Pixels-1)*g.Stride, 0
}

func halfDotAVX2(acc float32, a, w []float32) (sum float32, n int) { return acc, 0 }

func halfRoundAVX2(dst, src []float32) int { return 0 }

func expRowAVX2(dst []float64, x []float32, shift float32) int { return 0 }

// The plain-float32 bodies of floatrow_amd64.s are never reached: every call
// is behind hasAVX2.

func mulAddPanelAVX2(acc, a, w []float32, stride int) {}

func quantRoundAVX2(dst, src []float32, scale, satLo, satHi, vLo, vHi, floor float32) {}

func maxRowAVX2(m, v []float32) {}

func reluRowAVX2(out, x []float32) {}

func clipRowAVX2(out, x []float32, lo, hi float32) {}

func addRowAVX2(out, a, b []float32) {}

func diffEndsAVX2(a, b []float32) (first, last int) { return len(a), -1 }
