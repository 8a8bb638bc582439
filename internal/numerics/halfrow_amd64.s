// AVX2 lanes for the FP16 row primitives of halfrow.go: eight float32 lanes
// go through the F16C converter and one mask at once (DESIGN.md §7.3 argues why
// that rounds like HalfFromFloat32). Every routine walks whole 8-element chunks
// from the front of its operands and stops before the first chunk in which some
// lane is at or past f32HalfOver — an overflowing product, ±Inf or NaN —
// returning how many elements it finished (the panel: the row and column it
// stopped at); the Go loops own that band and every tail.
//
// VEX encodings only, and VZEROUPPER before every RET: one legacy-SSE
// instruction with dirty upper YMM halves costs a state transition of about a
// microsecond per call (measured). TestAsmIsVEXOnly holds the file to both.

#include "textflag.h"

// One dword per lane constant, broadcast at entry.
DATA halfLanes<>+0(SB)/4, $0x7fffffff  // |p| mask
DATA halfLanes<>+4(SB)/4, $0x477fefff  // f32HalfOver - 1
DATA halfLanes<>+8(SB)/4, $0x337fffff  // f32HalfTiny - 1
DATA halfLanes<>+12(SB)/4, $0x80000000 // the sign bit
GLOBL halfLanes<>(SB), RODATA|NOPTR, $16

#define LANECONSTS \
	VPBROADCASTD halfLanes<>+0(SB), Y15; \
	VPBROADCASTD halfLanes<>+4(SB), Y14; \
	VPBROADCASTD halfLanes<>+8(SB), Y13; \
	VPBROADCASTD halfLanes<>+12(SB), Y12

// ROUND8 rounds the eight float32 lanes of Y0 through the half encoding into
// Y3, or jumps to bail with nothing written when a lane belongs to the Go
// loop. Y1 = |p|; the converter rounds to nearest even whatever MXCSR says
// (imm8 = 0) and expands the half back exactly; a lane with |p| < 2^-24 is then
// masked down to its sign bit, which flushes (2^-25, 2^-24) as HalfFromFloat32
// does and IEEE does not. Clobbers Y1-Y3 and Y5.
#define ROUND8(bail) \
	VPAND     Y15, Y0, Y1; \
	VPCMPGTD  Y14, Y1, Y2; \
	VPTEST    Y2, Y2; \
	JNZ       bail; \
	VCVTPS2PH $0, Y0, X3; \
	VCVTPH2PS X3, Y3; \
	VPCMPGTD  Y13, Y1, Y5; \
	VPOR      Y12, Y5, Y5; \
	VPAND     Y5, Y3, Y3

// func cpuHasAVX2() bool
//
// The lanes are usable when the CPU has AVX2 (leaf 7 EBX bit 5) and the F16C
// converter (leaf 1 ECX bit 29), and the OS saves the YMM state across context
// switches (OSXSAVE, and XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x38000000, CX // OSXSAVE | AVX | F16C
	CMPL CX, $0x38000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET

// func halfMulAddRowAVX2(acc []float32, a float32, w []float32) int
TEXT ·halfMulAddRowAVX2(SB), NOSPLIT, $0-64
	MOVQ         acc_base+0(FP), DI
	MOVQ         w_base+32(FP), SI
	MOVQ         w_len+40(FP), CX
	VBROADCASTSS a+24(FP), Y7
	LANECONSTS
	XORQ         AX, AX
	ANDQ         $-8, CX
	JZ           done
loop:
	VMULPS       (SI)(AX*4), Y7, Y0
	ROUND8(done)
	VADDPS       (DI)(AX*4), Y3, Y3
	VMOVUPS      Y3, (DI)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop
done:
	MOVQ         AX, ret+56(FP)
	VZEROUPPER
	RET

// func halfMulAddPanelAVX2(acc, a, w []float32, stride int, skipZero bool) (row, col int)
//
// acc[c] += R(a[i]*w[i*stride+c]) for the rows i of a in ascending order and
// the whole chunks c of acc, accumulators in memory: a row's second chunk does
// not wait for its first, and the next row's load of a chunk forwards from
// this row's store. With skipZero a row whose activation is +0 or -0 is
// stepped over (DESIGN.md 7.2). Returns row = len(a) when every row is done,
// or the (row, col) of the first chunk with a lane in the rare band, nothing
// of that chunk stored: rows before it are finished, that row up to col.
TEXT ·halfMulAddPanelAVX2(SB), NOSPLIT, $0-104
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	MOVQ         a_base+24(FP), DX
	MOVQ         a_len+32(FP), R8
	MOVQ         w_base+48(FP), SI
	MOVQ         stride+72(FP), R9
	MOVBLZX      skipZero+80(FP), R10
	LANECONSTS
	SHLQ         $2, R9 // a row of w, in bytes
	XORQ         BX, BX
	ANDQ         $-8, CX
	JZ           alldone
	TESTQ        R8, R8
	JZ           alldone
rowloop:
	TESTQ        R10, R10
	JZ           mul
	MOVL         (DX)(BX*4), R11
	SHLL         $1, R11 // drops the sign: ZF on +0 and -0
	JZ           next
mul:
	VBROADCASTSS (DX)(BX*4), Y7
	XORQ         AX, AX
loop:
	VMULPS       (SI)(AX*4), Y7, Y0
	ROUND8(done)
	VADDPS       (DI)(AX*4), Y3, Y3
	VMOVUPS      Y3, (DI)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop
next:
	ADDQ         R9, SI
	INCQ         BX
	CMPQ         BX, R8
	JLT          rowloop
alldone:
	MOVQ         R8, BX
done:
	MOVQ         BX, row+88(FP)
	MOVQ         AX, col+96(FP)
	VZEROUPPER
	RET

// func halfMulAddVecAVX2(acc, a, w []float32) int
TEXT ·halfMulAddVecAVX2(SB), NOSPLIT, $0-80
	MOVQ    acc_base+0(FP), DI
	MOVQ    a_base+24(FP), DX
	MOVQ    w_base+48(FP), SI
	MOVQ    w_len+56(FP), CX
	LANECONSTS
	XORQ    AX, AX
	ANDQ    $-8, CX
	JZ      done
loop:
	VMOVUPS (DX)(AX*4), Y0
	VMULPS  (SI)(AX*4), Y0, Y0
	ROUND8(done)
	VADDPS  (DI)(AX*4), Y3, Y3
	VMOVUPS Y3, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	MOVQ    AX, ret+72(FP)
	VZEROUPPER
	RET

// func halfDotAVX2(acc float32, a, w []float32) (sum float32, n int)
//
// The lanes round eight products; the sum stays one scalar chain, added in
// ascending element order as the Go loop adds it.
TEXT ·halfDotAVX2(SB), NOSPLIT, $0-72
	VMOVSS       acc+0(FP), X6
	MOVQ         a_base+8(FP), DX
	MOVQ         w_base+32(FP), SI
	MOVQ         w_len+40(FP), CX
	LANECONSTS
	XORQ         AX, AX
	ANDQ         $-8, CX
	JZ           done
loop:
	VMOVUPS      (DX)(AX*4), Y0
	VMULPS       (SI)(AX*4), Y0, Y0
	ROUND8(done)
	VEXTRACTF128 $1, Y3, X0
	VADDSS       X3, X6, X6
	VMOVSHDUP    X3, X4
	VADDSS       X4, X6, X6
	VPERMILPS    $2, X3, X4
	VADDSS       X4, X6, X6
	VPERMILPS    $3, X3, X4
	VADDSS       X4, X6, X6
	VADDSS       X0, X6, X6
	VMOVSHDUP    X0, X4
	VADDSS       X4, X6, X6
	VPERMILPS    $2, X0, X4
	VADDSS       X4, X6, X6
	VPERMILPS    $3, X0, X4
	VADDSS       X4, X6, X6
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop
done:
	VMOVSS       X6, sum+56(FP)
	MOVQ         AX, n+64(FP)
	VZEROUPPER
	RET

// func halfRoundAVX2(dst, src []float32) int
TEXT ·halfRoundAVX2(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), CX
	LANECONSTS
	XORQ    AX, AX
	ANDQ    $-8, CX
	JZ      done
loop:
	VMOVUPS (SI)(AX*4), Y0
	ROUND8(done)
	VMOVUPS Y3, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	MOVQ    AX, ret+48(FP)
	VZEROUPPER
	RET
