package numerics

// hasAVX2 selects the AVX2 bodies of halfrow_amd64.s (eight FP16 lanes),
// floatrow_amd64.s (the plain-float32 rows, the diff scan and the quantizer
// lanes) and exprow_amd64.s (the exponentials), once, from what the CPU (AVX2,
// the F16C converter and FMA) and the OS report. Tests flip it to run every
// primitive both ways; nothing else writes it.
var hasAVX2 = cpuHasAVX2()

// hasAVX512 selects the one AVX-512 body, halfMulAddPanelAVX512 (sixteen FP16
// lanes a register), for column blocks of 16 and more: where the CPU has
// AVX-512F and the OS saves the opmask and ZMM state. It is read only under
// hasAVX2, so turning that off turns every body off; tests flip both.
var hasAVX512 = hasAVX2 && cpuHasAVX512()

// hasAVX512FP16 selects the panel's FP16 body, halfMulAddPanelAVX512FP16, for
// the blocks hasAVX512 gives the AVX-512 body when the call has thresholds and
// packed weights: where the CPU also has AVX512-FP16 and AVX512VL. It is read
// only under hasAVX512; tests flip all three.
var hasAVX512FP16 = hasAVX512 && cpuHasAVX512FP16()

// Implemented in halfrow_amd64.s; halfrow.go (laneChunk) has the contract of
// the three chunk routines, the panel and the element-wise run (one column
// block a call, over every pixel for the run) state their own.

func cpuHasAVX2() bool

func cpuHasAVX512() bool

func cpuHasAVX512FP16() bool

func halfMulAddRowAVX2(acc []float32, a float32, w []float32) int

func halfMulAddPanelAVX2(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool)

func halfMulAddPanelAVX512(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool)

func halfMulAddPanelAVX512FP16(acc, a, w []float32, wh []uint16, stride int, thr []uint32, g PanelRun) (n int, ok bool)

func halfMulAddVecAVX2(out, a, w, bias []float32, g VecRun, finish bool) (n, done int)

func halfDotAVX2(acc float32, a, w []float32) (sum float32, n int)

func halfRoundAVX2(dst, src []float32) int

// Implemented in floatrow_amd64.s. The panel takes len(acc) a multiple of
// panelBlock and at least one row, the rows below a length that is a multiple
// of laneChunk; none of them bails, so none returns a count. The diff scan
// takes a row of at least laneChunk and returns both ends (DiffEnds).

func mulAddPanelAVX2(acc, a, w []float32, stride int)

func quantRoundAVX2(dst, src []float32, scale, satLo, satHi, vLo, vHi, floor float32)

func maxRowAVX2(m, v []float32)

func reluRowAVX2(out, x []float32)

func clipRowAVX2(out, x []float32, lo, hi float32)

func addRowAVX2(out, a, b []float32)

func diffEndsAVX2(a, b []float32) (first, last int)

// Implemented in exprow_amd64.s, under the chunk contract of laneChunk. dst is
// a caller's stack block (tensor.SoftmaxRows), which must not escape.

//go:noescape
func expRowAVX2(dst []float64, x []float32, shift float32) int
