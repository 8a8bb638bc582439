package numerics

// hasAVX2 selects the AVX2 bodies of halfrow_amd64.s (eight FP16 lanes),
// floatrow_amd64.s (the plain-float32 rows, the diff scans and the quantizer
// lanes) and
// exprow_amd64.s (the exponentials), once, from what the CPU (AVX2, the F16C
// converter and FMA) and the OS report. Tests flip it to run every primitive
// both ways; nothing else writes it.
var hasAVX2 = cpuHasAVX2()

// Implemented in halfrow_amd64.s; halfrow.go (laneChunk) has the contract of
// the four chunk routines, the panel (one column block a call) states its own.

func cpuHasAVX2() bool

func halfMulAddRowAVX2(acc []float32, a float32, w []float32) int

func halfMulAddPanelAVX2(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool)

func halfMulAddVecAVX2(acc, a, w []float32) int

func halfDotAVX2(acc float32, a, w []float32) (sum float32, n int)

func halfRoundAVX2(dst, src []float32) int

// Implemented in floatrow_amd64.s. The panel takes len(acc) a multiple of
// panelBlock and at least one row, the rows below a length that is a multiple
// of laneChunk; none of them bails, so none returns a count. The diff scans
// take any length and return where they stopped (FirstDiff, LastDiff).

func mulAddPanelAVX2(acc, a, w []float32, stride int)

func quantRoundAVX2(dst, src []float32, scale, satLo, satHi, vLo, vHi, floor float32)

func maxRowAVX2(m, v []float32)

func reluRowAVX2(out, x []float32)

func clipRowAVX2(out, x []float32, lo, hi float32)

func firstDiffAVX2(a, b []float32) int

func lastDiffAVX2(a, b []float32) int

// Implemented in exprow_amd64.s, under the chunk contract of laneChunk. dst is
// a caller's stack block (tensor.SoftmaxRows), which must not escape.

//go:noescape
func expRowAVX2(dst []float64, x []float32, shift float32) int
