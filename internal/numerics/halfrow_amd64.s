// AVX2 lanes for the FP16 row primitives of halfrow.go: eight float32 lanes
// go through the F16C converter and one mask at once (DESIGN.md §7.3 argues why
// that rounds like HalfFromFloat32). The row, element-wise, dot and rounding
// routines walk whole 8-element chunks from the front of their operands and
// stop before the first chunk in which some lane is at or past f32HalfOver — an
// overflowing product, ±Inf or NaN — returning how many elements they finished.
// The panel tests no product: it keeps a column block's accumulators in
// registers across every row, stores them only if all came out finite and says
// which it did (§7.4). The Go loops own the rare band and every tail.
//
// VEX encodings only, and VZEROUPPER before every RET: one legacy-SSE
// instruction with dirty upper YMM halves costs a state transition of about a
// microsecond per call (measured). TestAsmIsVEXOnly holds the file to both.

#include "textflag.h"

// One dword per lane constant, broadcast at entry. Y14 takes the one at the
// offset LANECONSTS is given: the bail threshold (4) of the chunk routines or,
// in the panel, the exponent field (16).
DATA halfLanes<>+0(SB)/4, $0x7fffffff  // |p| mask
DATA halfLanes<>+4(SB)/4, $0x477fefff  // f32HalfOver - 1
DATA halfLanes<>+8(SB)/4, $0x337fffff  // f32HalfTiny - 1
DATA halfLanes<>+12(SB)/4, $0x80000000 // the sign bit
DATA halfLanes<>+16(SB)/4, $0x7f800000 // the exponent field
GLOBL halfLanes<>(SB), RODATA|NOPTR, $20

#define LANECONSTS(y14) \
	VPBROADCASTD halfLanes<>+0(SB), Y15; \
	VPBROADCASTD halfLanes<>+y14(SB), Y14; \
	VPBROADCASTD halfLanes<>+8(SB), Y13; \
	VPBROADCASTD halfLanes<>+12(SB), Y12

// HALF8 rounds the eight float32 lanes of Y0, |p| in Y1, through the half
// encoding into Y3: the converter rounds to nearest even whatever MXCSR says
// (imm8 = 0) and expands the half back exactly; a lane with |p| < 2^-24 is then
// masked down to its sign bit, which flushes (2^-25, 2^-24) as HalfFromFloat32
// does and IEEE does not. A lane at or past f32HalfOver comes out ±Inf or NaN.
// Clobbers Y1.
#define HALF8 \
	VCVTPS2PH $0, Y0, X3; \
	VCVTPH2PS X3, Y3; \
	VPCMPGTD  Y13, Y1, Y1; \
	VPOR      Y12, Y1, Y1; \
	VPAND     Y1, Y3, Y3

// ROUND8 is HALF8 of Y0, or a jump to bail with nothing written when a lane
// belongs to the Go loop. Clobbers Y1 and Y2.
#define ROUND8(bail) \
	VPAND    Y15, Y0, Y1; \
	VPCMPGTD Y14, Y1, Y2; \
	VPTEST   Y2, Y2; \
	JNZ      bail; \
	HALF8

// func cpuHasAVX2() bool
//
// The lanes are usable when the CPU has AVX2 (leaf 7 EBX bit 5), the F16C
// converter (leaf 1 ECX bit 29) and FMA (leaf 1 ECX bit 12), and the OS saves
// the YMM state across context switches (OSXSAVE, and XCR0 bits 1 and 2). FMA
// is what math.Exp itself requires of its fused path, the one exprow_amd64.s
// copies: with it the lanes run only where math.Exp runs that path too.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x38001000, CX // OSXSAVE | AVX | F16C | FMA
	CMPL CX, $0x38001000
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
	LANECONSTS(4)
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

// The panel's column blocks: COLSn applies M to the byte offset and the
// accumulator register of each chunk of an n-column block.
#define COLS8(M)  M(0, Y8)
#define COLS16(M) COLS8(M); M(32, Y9)
#define COLS32(M) COLS16(M); M(64, Y10); M(96, Y11)

#define PLOAD(off, ACC)  VMOVUPS off(DI), ACC
#define PSTORE(off, ACC) VMOVUPS ACC, off(DI)

// PMAC is one chunk of one row, acc += R(a*w), and tests nothing: a product of
// the rare band leaves HALF8 as ±Inf or NaN, and the accumulator non-finite.
#define PMAC(off, ACC) \
	VMULPS off(SI), Y7, Y0; \
	VPAND  Y15, Y0, Y1; \
	HALF8; \
	VADDPS ACC, Y3, ACC

// PTEST ors into Y1 the lanes of ACC whose exponent field (Y14) is all ones.
#define PTEST(off, ACC) \
	VPAND    Y14, ACC, Y0; \
	VPCMPEQD Y14, Y0, Y0; \
	VPOR     Y0, Y1, Y1

// BLOCK is the panel over one block of width columns. The accumulators are
// loaded once and take every row in registers; with R10 = 0 (skipZero) a row
// whose activation is +0 or -0 is stepped over, the shift dropping the sign
// (DESIGN.md 7.2). After the last row they are stored if every lane is finite
// and left as they were in memory if not: ZF at done says which.
#define BLOCK(COLS, width, row, next) \
	COLS(PLOAD); \
row: \
	MOVL         (DX), R11; \
	SHLL         $1, R11; \
	ORL          R10, R11; \
	JZ           next; \
	VBROADCASTSS (DX), Y7; \
	COLS(PMAC); \
next: \
	ADDQ         R9, SI; \
	ADDQ         $4, DX; \
	DECQ         R8; \
	JNZ          row; \
	MOVQ         $width, AX; \
	VPXOR        Y1, Y1, Y1; \
	COLS(PTEST); \
	VPTEST       Y1, Y1; \
	JNZ          done; \
	COLS(PSTORE); \
	JMP          done

// func halfMulAddPanelAVX2(acc, a, w []float32, stride int, skipZero bool) (n int, ok bool)
//
// acc[c] += R(a[i]*w[i*stride+c]) for the rows i of a in ascending order and
// the first n columns c, n the widest block of 32, 16 and 8 columns that
// len(acc) holds; len(acc) >= 8 and len(a) > 0. ok reports that every
// accumulator of the block came out finite and was stored. If not, nothing was:
// some product was of the rare band or an accumulator came in non-finite (or
// neither, and the Go loop will overflow the sum the same way), and the block
// is the Go loop's, from its first row.
TEXT ·halfMulAddPanelAVX2(SB), NOSPLIT, $0-97
	MOVQ    acc_base+0(FP), DI
	MOVQ    acc_len+8(FP), CX
	MOVQ    a_base+24(FP), DX
	MOVQ    a_len+32(FP), R8
	MOVQ    w_base+48(FP), SI
	MOVQ    stride+72(FP), R9
	MOVBLZX skipZero+80(FP), R10
	XORL    $1, R10
	SHLQ    $2, R9 // a row of w, in bytes
	LANECONSTS(16)
	CMPQ    CX, $32
	JGE     block32
	CMPQ    CX, $16
	JGE     block16
	BLOCK(COLS8, 8, row8, next8)
block16:
	BLOCK(COLS16, 16, row16, next16)
block32:
	BLOCK(COLS32, 32, row32, next32)
done:
	MOVQ    AX, n+88(FP)
	SETEQ   ok+96(FP) // ZF is still the block's VPTEST
	VZEROUPPER
	RET

// func halfMulAddVecAVX2(acc, a, w []float32) int
TEXT ·halfMulAddVecAVX2(SB), NOSPLIT, $0-80
	MOVQ    acc_base+0(FP), DI
	MOVQ    a_base+24(FP), DX
	MOVQ    w_base+48(FP), SI
	MOVQ    w_len+56(FP), CX
	LANECONSTS(4)
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
	LANECONSTS(4)
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
	LANECONSTS(4)
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
