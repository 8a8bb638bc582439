// AVX2 lanes for the FP16 row primitives of halfrow.go: eight float32 lanes
// go through the F16C converter and one mask at once (DESIGN.md §7.1.1 argues why
// that rounds like HalfFromFloat32). The row, dot and rounding routines walk
// whole 8-element chunks from the front of their operands and stop before the
// first chunk in which some lane is at or past f32HalfOver — an overflowing
// product, ±Inf or NaN — returning how many elements they finished. The panel
// and the element-wise run test no product: they keep a column block's
// accumulators in registers across every row or tap, store them only if all
// came out finite and say which they did (§7.1.2); with thresholds the panel
// visits the rows that are not ±0 by bitmask and leaves the mask out where it
// is idle (§7.1.4). The Go loops own the rare band and every tail.
//
// VEX encodings only, and VZEROUPPER before every RET: one legacy-SSE
// instruction with dirty upper YMM halves costs a state transition of about a
// microsecond per call (measured). TestAsmIsVEXOnly holds the file to both.

#include "textflag.h"

// One dword per lane constant, broadcast at entry. Y14 takes the one at the
// offset LANECONSTS is given: the bail threshold (4) of the chunk routines or,
// in the panel and the element-wise run, the exponent field (16).
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

// CVT8 rounds the eight float32 lanes of Y0 through the half encoding into
// Y3: the converter rounds to nearest even whatever MXCSR says (imm8 = 0) and
// expands the half back exactly. For |p| in [2^-24, 65520) and for ±0 that is
// the model's rounding (DESIGN.md §7.1.1).
#define CVT8 \
	VCVTPS2PH $0, Y0, X3; \
	VCVTPH2PS X3, Y3

// HALF8 is CVT8 with the underflow mask, |p| in Y1: a lane with |p| < 2^-24
// is masked down to its sign bit, which flushes (2^-25, 2^-24) as
// HalfFromFloat32 does and IEEE does not. A lane at or past f32HalfOver comes
// out ±Inf or NaN. Clobbers Y1.
#define HALF8 \
	CVT8; \
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

// PMACF is PMAC without the underflow mask, for a row whose activation is at
// or above its weight row's threshold: every product is then ±0 or at least
// 2^-24 in magnitude (or of the rare band), where the mask is the identity
// (DESIGN.md §7.1.4).
#define PMACF(off, ACC) \
	VMULPS off(SI), Y7, Y0; \
	CVT8; \
	VADDPS ACC, Y3, ACC

// PTEST ors into Y1 the lanes of ACC whose exponent field (Y14) is all ones.
#define PTEST(off, ACC) \
	VPAND    Y14, ACC, Y0; \
	VPCMPEQD Y14, Y0, Y0; \
	VPOR     Y0, Y1, Y1

// FINISH ends a block after its last row: the accumulators are stored if
// every lane is finite and left as they were in memory if not; ZF at done
// says which.
#define FINISH(COLS, width) \
	MOVQ   $width, AX; \
	VPXOR  Y1, Y1, Y1; \
	COLS(PTEST); \
	VPTEST Y1, Y1; \
	JNZ    done; \
	COLS(PSTORE); \
	JMP    done

// BLOCK is the panel over one block of width columns with no thresholds
// (thr == nil): the accumulators are loaded once and take every row, each
// product masked, in registers.
#define BLOCK(COLS, width, row) \
	COLS(PLOAD); \
row: \
	VBROADCASTSS (DX), Y7; \
	COLS(PMAC); \
	ADDQ         R9, SI; \
	ADDQ         $4, DX; \
	DECQ         R8; \
	JNZ          row; \
	FINISH(COLS, width)

// MASK sets M to a bit a row for the CX rows at off(DX) whose activation is
// not ±0, CX counting down to 0: the rows past the last whole 8-row step one
// at a time, top down (NEGL sets the carry iff the pattern shifted left one,
// sign dropped, is not zero), then the 8-row steps top down (|a|'s pattern
// compared greater than zero, VMOVMSKPS). A NaN is not zero.
#define MASK(off, M, tail, steps, step, done) \
	XORL      M, M; \
tail: \
	TESTQ     $7, CX; \
	JZ        steps; \
	DECQ      CX; \
	MOVL      off(DX)(CX*4), R11; \
	SHLL      $1, R11; \
	NEGL      R11; \
	ADCQ      M, M; \
	JMP       tail; \
steps: \
	TESTQ     CX, CX; \
	JZ        done; \
step: \
	SUBQ      $8, CX; \
	VPAND     off(DX)(CX*4), Y15, Y0; \
	VPCMPGTD  Y6, Y0, Y0; \
	VMOVMSKPS Y0, R11; \
	SHLQ      $8, M; \
	ORQ       R11, M; \
	TESTQ     CX, CX; \
	JNZ       step; \
done:

// GROUP sets CX to the rows of a group, min(R, 64).
#define GROUP(R) \
	MOVQ    $64, CX; \
	CMPQ    R, CX; \
	CMOVQLT R, CX

// SBLOCK is the panel over one block of width columns with thresholds: the
// rows go by in groups of 64, DX, R12 and AX at a group's activations,
// thresholds and first weight row, R14 the mask of its rows that are not ±0
// (MASK). Each group first masks the next one into R13, work that overlaps
// this one's rows, then visits R14's set bits in ascending order, BSFQ
// (after XORL, so that it does not wait on the previous BSFQ) and
// R14 &= R14-1: a row whose |a| is at or above its threshold takes PMACF, one
// below it PMAC (DESIGN.md §7.1.4).
#define SBLOCK(COLS, width, t0, s0, p0, d0, group, t1, s1, p1, visit, vrow, masked, next) \
	COLS(PLOAD); \
	MOVQ         SI, AX; \
	GROUP(R8); \
	MASK(0, R14, t0, s0, p0, d0); \
group: \
	LEAQ         -64(R8), R10; \
	TESTQ        R10, R10; \
	JLE          visit; \
	GROUP(R10); \
	MASK(256, R13, t1, s1, p1, visit); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JZ           next; \
vrow: \
	LEAQ         -1(R14), R11; \
	ANDQ         R11, R14; \
	MOVQ         BX, SI; \
	IMULQ        R9, SI; \
	ADDQ         AX, SI; \
	VBROADCASTSS (DX)(BX*4), Y7; \
	MOVL         (DX)(BX*4), R11; \
	ANDL         $0x7fffffff, R11; \
	CMPL         R11, (R12)(BX*4); \
	JCS          masked; \
	COLS(PMACF); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JNZ          vrow; \
	JMP          next; \
masked: \
	COLS(PMAC); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JNZ          vrow; \
next: \
	MOVQ         R13, R14; \
	ADDQ         $256, DX; \
	ADDQ         $256, R12; \
	MOVQ         R9, R11; \
	SHLQ         $6, R11; \
	ADDQ         R11, AX; \
	SUBQ         $64, R8; \
	JGT          group; \
	FINISH(COLS, width)

// func halfMulAddPanelAVX2(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool)
//
// acc[c] += R(a[i]*w[i*stride+c]) for the rows i of a in ascending order and
// the first n columns c, n the widest block of 32, 16 and 8 columns that
// len(acc) holds; len(acc) >= 8 and len(a) > 0. With thr (len(thr) >=
// len(a)) the rows whose activation is ±0 are skipped and a row with
// |a[i]| >= thr[i] goes unmasked. ok reports that every accumulator of the
// block came out finite and was stored. If not, nothing was: some product was
// of the rare band or an accumulator came in non-finite (or neither, and the
// Go loop will overflow the sum the same way), and the block is the Go
// loop's, from its first row.
TEXT ·halfMulAddPanelAVX2(SB), NOSPLIT, $0-113
	MOVQ  acc_base+0(FP), DI
	MOVQ  acc_len+8(FP), CX
	MOVQ  a_base+24(FP), DX
	MOVQ  a_len+32(FP), R8
	MOVQ  w_base+48(FP), SI
	MOVQ  stride+72(FP), R9
	MOVQ  thr_base+80(FP), R12
	SHLQ  $2, R9 // a row of w, in bytes
	LANECONSTS(16)
	TESTQ R12, R12
	JNZ   skip
	CMPQ  CX, $32
	JGE   block32
	CMPQ  CX, $16
	JGE   block16
	BLOCK(COLS8, 8, row8)
block16:
	BLOCK(COLS16, 16, row16)
block32:
	BLOCK(COLS32, 32, row32)
skip:
	VPXOR Y6, Y6, Y6
	CMPQ  CX, $32
	JGE   sblock32
	CMPQ  CX, $16
	JGE   sblock16
	SBLOCK(COLS8, 8, t08, s08, p08, d08, group8, t18, s18, p18, visit8, vrow8, masked8, next8)
sblock16:
	SBLOCK(COLS16, 16, t016, s016, p016, d016, group16, t116, s116, p116, visit16, vrow16, masked16, next16)
sblock32:
	SBLOCK(COLS32, 32, t032, s032, p032, d032, group32, t132, s132, p132, visit32, vrow32, masked32, next32)
done:
	MOVQ  AX, n+104(FP)
	SETEQ ok+112(FP) // ZF is still the block's VPTEST
	VZEROUPPER
	RET

// VMAC is PMAC for the element-wise run: the activations are a chunk of
// their own, at the same offset as the weights.
#define VMAC(off, ACC) \
	VMOVUPS off(DX), Y0; \
	VMULPS  off(SI), Y0, Y0; \
	VPAND   Y15, Y0, Y1; \
	HALF8; \
	VADDPS  ACC, Y3, ACC

// VBLOCK is the element-wise run over one block of width columns: the
// accumulators are loaded once and take every tap, each product masked, in
// registers; both operands step a tap (R9 bytes) at a time.
#define VBLOCK(COLS, width, tap) \
	COLS(PLOAD); \
tap: \
	COLS(VMAC); \
	ADDQ R9, DX; \
	ADDQ R9, SI; \
	DECQ R8; \
	JNZ  tap; \
	FINISH(COLS, width)

// func halfMulAddVecAVX2(acc, a, w []float32, stride, taps int) (n int, ok bool)
//
// acc[c] += R(a[t*stride+c]*w[t*stride+c]) for the taps t in ascending order
// and the first n columns c, n the widest block of 32, 16 and 8 columns that
// len(acc) holds; len(acc) >= 8 and taps > 0. ok and what was stored are the
// panel's block rule: all finite, stored; else nothing, and the block is the
// Go loop's from its first tap.
TEXT ·halfMulAddVecAVX2(SB), NOSPLIT, $0-97
	MOVQ  acc_base+0(FP), DI
	MOVQ  acc_len+8(FP), CX
	MOVQ  a_base+24(FP), DX
	MOVQ  w_base+48(FP), SI
	MOVQ  stride+72(FP), R9
	MOVQ  taps+80(FP), R8
	SHLQ  $2, R9 // a tap, in bytes
	LANECONSTS(16)
	CMPQ  CX, $32
	JGE   vblock32
	CMPQ  CX, $16
	JGE   vblock16
	VBLOCK(COLS8, 8, tap8)
vblock16:
	VBLOCK(COLS16, 16, tap16)
vblock32:
	VBLOCK(COLS32, 32, tap32)
done:
	MOVQ  AX, n+88(FP)
	SETEQ ok+96(FP) // ZF is still the block's VPTEST
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
