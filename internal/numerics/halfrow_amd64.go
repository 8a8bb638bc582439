package numerics

// hasAVX2 selects the 8-lane bodies of halfrow_amd64.s, once, from what the
// CPU (AVX2 and the F16C converter) and the OS report. Tests flip it to run
// every primitive both ways; nothing else writes it.
var hasAVX2 = cpuHasAVX2()

// Implemented in halfrow_amd64.s; halfrow.go (laneChunk) has the contract of
// the four chunk routines, the panel states its own.

func cpuHasAVX2() bool

func halfMulAddRowAVX2(acc []float32, a float32, w []float32) int

func halfMulAddPanelAVX2(acc, a, w []float32, stride int, skipZero bool) (row, col int)

func halfMulAddVecAVX2(acc, a, w []float32) int

func halfDotAVX2(acc float32, a, w []float32) (sum float32, n int)

func halfRoundAVX2(dst, src []float32) int
