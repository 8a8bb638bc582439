// AVX2 lanes for the FP16 row primitives of halfrow.go: eight float32 lanes
// go through the F16C converter and one mask at once (DESIGN.md §7.1.1 argues why
// that rounds like HalfFromFloat32). The row, dot and rounding routines walk
// whole 8-element chunks from the front of their operands and stop before the
// first chunk in which some lane is at or past f32HalfOver — an overflowing
// product, ±Inf or NaN — returning how many elements they finished. The panel
// and the element-wise run test no product: they keep a column block's
// accumulators in registers across every row or tap, store them only if all
// came out finite and say which they did — the run pixel by pixel, saying
// how many pixels it stored (§7.1.2); with thresholds the panel visits the
// rows that are not ±0 by bitmask and leaves the mask out where it is idle
// (§7.1.4). The Go loops own the rare band and every tail.
//
// The panel has a second body, halfMulAddPanelAVX512, for blocks of 16
// columns and more where the CPU has AVX-512F: the same walk of the rows and
// the same block rule, sixteen lanes a register (DESIGN.md §7.3). A third,
// halfMulAddPanelAVX512FP16, takes the blocks with thresholds where the CPU
// also has AVX512-FP16: a row whose activation is a half and at or above its
// threshold multiplies in FP16 (VMULPH on the packed weights), every other
// row as the second body does it (§7.1.4); it also walks the segments of a
// panel run, a convolution pixel's kernel rows, in one call.
//
// VEX encodings only (EVEX for the ZMM and FP16 bodies; VMULPH, which the
// assembler cannot name, as BYTE runs), and VZEROUPPER before every RET: one
// legacy-SSE instruction with dirty upper YMM halves costs a state
// transition of about a microsecond per call (measured). TestAsmIsVEXOnly
// holds the file to both.

#include "textflag.h"

// One dword per lane constant, broadcast at entry. Y14 takes the one at the
// offset LANECONSTS is given: the bail threshold (4) of the chunk routines or,
// in the panel and the element-wise run, the exponent field (16). HalfMax is
// the element-wise run's clip, which it broadcasts itself.
DATA halfLanes<>+0(SB)/4, $0x7fffffff  // |p| mask
DATA halfLanes<>+4(SB)/4, $0x477fefff  // f32HalfOver - 1
DATA halfLanes<>+8(SB)/4, $0x337fffff  // f32HalfTiny - 1
DATA halfLanes<>+12(SB)/4, $0x80000000 // the sign bit
DATA halfLanes<>+16(SB)/4, $0x7f800000 // the exponent field
DATA halfLanes<>+20(SB)/4, $0x477fe000 // HalfMax, 65504
GLOBL halfLanes<>(SB), RODATA|NOPTR, $24

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

// func cpuHasAVX512() bool
//
// Called only where cpuHasAVX2 said yes, so that leaf 7 and XGETBV exist: the
// ZMM body is usable when the CPU has AVX-512F (leaf 7 EBX bit 16) and the OS
// saves the opmask and both upper parts of the ZMM state besides the XMM and
// YMM state (XCR0 bits 1, 2, 5, 6 and 7).
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   CX, CX
	XGETBV
	ANDL   $0xe6, AX
	CMPL   AX, $0xe6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	SHRL   $16, BX
	ANDL   $1, BX
	MOVB   BX, ret+0(FP)
no:
	RET

// func cpuHasAVX512FP16() bool
//
// Called only where cpuHasAVX512 said yes, which checked the ZMM state: the
// FP16 body is usable when the CPU has AVX512-FP16 (leaf 7 EDX bit 23) and
// AVX512VL (leaf 7 EBX bit 31), the 256-bit form of VMULPH.
TEXT ·cpuHasAVX512FP16(SB), NOSPLIT, $0-1
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $31, BX
	SHRL  $23, DX
	ANDL  DX, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
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

// BLOCK is the panel over one block of columns with no thresholds (thr ==
// nil): the accumulators are loaded once and take every row, each product
// masked (MAC, the activation broadcast to A), in registers; FIN ends it.
#define BLOCK(COLS, A, MAC, FIN, row) \
	COLS(PLOAD); \
row: \
	VBROADCASTSS (DX), A; \
	COLS(MAC); \
	ADDQ         R9, SI; \
	ADDQ         $4, DX; \
	DECQ         R8; \
	JNZ          row; \
	FIN

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

// SBLOCK is the panel over one block of columns with thresholds: the rows go
// by in groups of 64, DX, R12 and AX at a group's activations, thresholds and
// first weight row, R14 the mask of its rows that are not ±0 (MASK). Each
// group first masks the next one into R13, work that overlaps this one's
// rows, then visits R14's set bits in ascending order, BSFQ (after XORL, so
// that it does not wait on the previous BSFQ) and R14 &= R14-1: a row whose
// |a| is at or above its threshold takes MACF, one below it MAC (DESIGN.md
// §7.1.4). A, MAC and FIN are BLOCK's.
#define SBLOCK(COLS, A, MAC, MACF, FIN, t0, s0, p0, d0, group, t1, s1, p1, visit, vrow, masked, next) \
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
	VBROADCASTSS (DX)(BX*4), A; \
	MOVL         (DX)(BX*4), R11; \
	ANDL         $0x7fffffff, R11; \
	CMPL         R11, (R12)(BX*4); \
	JCS          masked; \
	COLS(MACF); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JNZ          vrow; \
	JMP          next; \
masked: \
	COLS(MAC); \
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
	FIN

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
	BLOCK(COLS8, Y7, PMAC, FINISH(COLS8, 8), row8)
block16:
	BLOCK(COLS16, Y7, PMAC, FINISH(COLS16, 16), row16)
block32:
	BLOCK(COLS32, Y7, PMAC, FINISH(COLS32, 32), row32)
skip:
	VPXOR Y6, Y6, Y6
	CMPQ  CX, $32
	JGE   sblock32
	CMPQ  CX, $16
	JGE   sblock16
	SBLOCK(COLS8, Y7, PMAC, PMACF, FINISH(COLS8, 8), t08, s08, p08, d08, group8, t18, s18, p18, visit8, vrow8, masked8, next8)
sblock16:
	SBLOCK(COLS16, Y7, PMAC, PMACF, FINISH(COLS16, 16), t016, s016, p016, d016, group16, t116, s116, p116, visit16, vrow16, masked16, next16)
sblock32:
	SBLOCK(COLS32, Y7, PMAC, PMACF, FINISH(COLS32, 32), t032, s032, p032, d032, group32, t132, s132, p132, visit32, vrow32, masked32, next32)
done:
	MOVQ  AX, n+104(FP)
	SETEQ ok+112(FP) // ZF is still the block's VPTEST
	VZEROUPPER
	RET

// The ZMM body's column blocks: ZCOLSn applies M to the byte offset and the
// accumulator register of each 16-lane chunk of an n-column block. Z8–Z11 are
// never the destination of a VEX instruction, which would zero their upper
// lanes: MASK writes Y0, and its zero is Y6.
#define ZCOLS16(M) M(0, Z8)
#define ZCOLS32(M) ZCOLS16(M); M(64, Z9)
#define ZCOLS64(M) ZCOLS32(M); M(128, Z10); M(192, Z11)

// CVT16 is CVT8 on the sixteen lanes of Z0, into Z3.
#define CVT16 \
	VCVTPS2PH $0, Z0, Y3; \
	VCVTPH2PS Y3, Z3

// ZMAC is PMAC on sixteen lanes, the underflow mask an opmask: K1 is the lanes
// with |p| (Z1) at or past 2^-24, KNOTW turns it to those below, and in those
// a merge-masked VPANDD keeps only the sign bit.
#define ZMAC(off, ACC) \
	VMULPS   off(SI), Z7, Z0; \
	VPANDD   Z15, Z0, Z1; \
	CVT16; \
	VPCMPGTD Z13, Z1, K1; \
	KNOTW    K1, K1; \
	VPANDD   Z12, Z3, K1, Z3; \
	VADDPS   ACC, Z3, ACC

// ZMACF is PMACF on sixteen lanes.
#define ZMACF(off, ACC) \
	VMULPS off(SI), Z7, Z0; \
	CVT16; \
	VADDPS ACC, Z3, ACC

// ZTEST ors into K3 the lanes of ACC whose exponent field (Z14) is all ones.
#define ZTEST(off, ACC) \
	VPANDD   Z14, ACC, Z0; \
	VPCMPEQD Z14, Z0, K2; \
	KORW     K2, K3, K3

// ZFINISH is FINISH for the ZMM body: KORTESTW leaves ZF set at done iff no
// lane of the block is non-finite.
#define ZFINISH(COLS, width) \
	MOVQ     $width, AX; \
	KXORW    K3, K3, K3; \
	COLS(ZTEST); \
	KORTESTW K3, K3; \
	JNZ      done; \
	COLS(PSTORE); \
	JMP      done

// func halfMulAddPanelAVX512(acc, a, w []float32, stride int, thr []uint32) (n int, ok bool)
//
// halfMulAddPanelAVX2 on blocks of 64, 32 and 16 columns, the widest that
// len(acc) holds; len(acc) >= 16. The rows, the thresholds and ok are the
// AVX2 body's, and so is every instruction but the lanes' own: four ZMM
// accumulators, the underflow mask as an opmask, the verdict in K3.
TEXT ·halfMulAddPanelAVX512(SB), NOSPLIT, $0-113
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	MOVQ         a_base+24(FP), DX
	MOVQ         a_len+32(FP), R8
	MOVQ         w_base+48(FP), SI
	MOVQ         stride+72(FP), R9
	MOVQ         thr_base+80(FP), R12
	SHLQ         $2, R9 // a row of w, in bytes
	VPBROADCASTD halfLanes<>+0(SB), Z15
	VPBROADCASTD halfLanes<>+16(SB), Z14
	VPBROADCASTD halfLanes<>+8(SB), Z13
	VPBROADCASTD halfLanes<>+12(SB), Z12
	TESTQ        R12, R12
	JNZ          skip
	CMPQ         CX, $64
	JGE          block64
	CMPQ         CX, $32
	JGE          block32
	BLOCK(ZCOLS16, Z7, ZMAC, ZFINISH(ZCOLS16, 16), row16)
block32:
	BLOCK(ZCOLS32, Z7, ZMAC, ZFINISH(ZCOLS32, 32), row32)
block64:
	BLOCK(ZCOLS64, Z7, ZMAC, ZFINISH(ZCOLS64, 64), row64)
skip:
	VPXOR        Y6, Y6, Y6
	CMPQ         CX, $64
	JGE          sblock64
	CMPQ         CX, $32
	JGE          sblock32
	SBLOCK(ZCOLS16, Z7, ZMAC, ZMACF, ZFINISH(ZCOLS16, 16), t016, s016, p016, d016, group16, t116, s116, p116, visit16, vrow16, masked16, next16)
sblock32:
	SBLOCK(ZCOLS32, Z7, ZMAC, ZMACF, ZFINISH(ZCOLS32, 32), t032, s032, p032, d032, group32, t132, s132, p132, visit32, vrow32, masked32, next32)
sblock64:
	SBLOCK(ZCOLS64, Z7, ZMAC, ZMACF, ZFINISH(ZCOLS64, 64), t064, s064, p064, d064, group64, t164, s164, p164, visit64, vrow64, masked64, next64)
done:
	MOVQ         AX, n+104(FP)
	SETEQ        ok+112(FP) // ZF is still the block's KORTESTW
	VZEROUPPER
	RET

// The FP16 body's column blocks: HCOLSn applies M to the VMULPH of each
// 16-lane chunk of an n-column block (its weights, 32 bytes of halves a chunk,
// at SI) and the chunk's accumulator register.
#define HCOLS16(M) M(VMULPH0, Z8)
#define HCOLS32(M) HCOLS16(M); M(VMULPH32, Z9)
#define HCOLS64(M) HCOLS32(M); M(VMULPH64, Z10); M(VMULPH96, Z11)

// Go's assembler has no AVX512-FP16 mnemonic, so each VMULPH is its EVEX
// encoding (EVEX.256.NP.MAP5.W0 59 /r): the sixteen halves at off(SI) times
// the sixteen of Y7, rounded once, into Y0. TestVMULPHEncodings re-encodes
// each from its comment.
#define VMULPH0 BYTE $0x62; BYTE $0xf5; BYTE $0x44; BYTE $0x28; BYTE $0x59; BYTE $0x06 // VMULPH (SI), Y7, Y0
#define VMULPH32 BYTE $0x62; BYTE $0xf5; BYTE $0x44; BYTE $0x28; BYTE $0x59; BYTE $0x46; BYTE $0x01 // VMULPH 32(SI), Y7, Y0
#define VMULPH64 BYTE $0x62; BYTE $0xf5; BYTE $0x44; BYTE $0x28; BYTE $0x59; BYTE $0x46; BYTE $0x02 // VMULPH 64(SI), Y7, Y0
#define VMULPH96 BYTE $0x62; BYTE $0xf5; BYTE $0x44; BYTE $0x28; BYTE $0x59; BYTE $0x46; BYTE $0x03 // VMULPH 96(SI), Y7, Y0

// HMAC is ZMACF with the product taken in FP16: a row whose activation (its
// half broadcast to Y7) is a half at or above its threshold, where the
// product VMULPH rounds is the exact one and is ±0 or at least 2^-24, so
// that its rounding is the model's (DESIGN.md §7.1.4). The product widens
// exactly; a rare one is ±Inf or NaN as in ZMACF.
#define HMAC(VMULPH, ACC) \
	VMULPH; \
	VCVTPH2PS Y0, Z0; \
	VADDPS    ACC, Z0, ACC

// The FP16 body's frame: a group's activations as halves (hcur; hnext the
// next group's, which ZMASK writes while this one's rows run), the bitmask
// of the next group's rows that take HMAC (fnext; the current group's is
// R10), hdelta, with which 2·SI − hdelta is a weight's float32 where SI is
// its half, and the segments: their rows, how many are left, the current
// one's first activation, threshold and row of halves, and the steps from
// one segment's to the next's, in bytes.
#define hcur 0
#define hnext 128
#define fnext 256
#define hdelta 264
#define segrows 272
#define segs 280
#define sega 288
#define segt 296
#define segh 304
#define asegb 312
#define tsegb 320
#define hsegb 328

// ZSTEP is one 16-row step of ZMASK, rows aoff bytes past DX and R12, the
// step's rows in R11's low 16 bits: it ors into M at shift the rows whose
// activation is not ±0 (a NaN is not), into F those of them whose
// activation is a half (its half, stored at HS+hoff, widens back to the same
// bits) and at or above the row's threshold, and jumps to end when no row
// is left. Rows past the group's last are loaded as +0 and read nothing.
#define ZSTEP(aoff, M, F, HS, hoff, shift, end) \
	KMOVW       R11, K4; \
	VMOVDQU32.Z aoff(DX), K4, Z0; \
	VMOVDQU32.Z aoff(R12), K4, Z4; \
	VPANDD      Z15, Z0, Z1; \
	VPTESTMD    Z1, Z1, K5; \
	VCVTPS2PH   $0, Z0, Y2; \
	VMOVDQU     Y2, HS+hoff(SP); \
	VCVTPH2PS   Y2, Z3; \
	VPCMPEQD    Z3, Z0, K6; \
	VPCMPGTD    Z1, Z4, K7; \
	KANDNW      K6, K7, K6; \
	KANDW       K5, K6, K6; \
	KMOVW       K5, CX; \
	SHLQ        $shift, CX; \
	ORQ         CX, M; \
	KMOVW       K6, CX; \
	SHLQ        $shift, CX; \
	ORQ         CX, F; \
	SHRQ        $16, R11; \
	JZ          end

// ZMASK is MASK for the FP16 body, sixteen rows a step: for the CX rows (1 to
// 64) at aoff(DX), thresholds at aoff(R12), it sets M to the rows that are
// not ±0, F to those of them that take HMAC, and HS to the rows' halves.
// Clobbers CX and R11.
#define ZMASK(aoff, M, F, HS, end) \
	NEGQ  CX; \
	ADDQ  $64, CX; \
	MOVQ  $-1, R11; \
	SHRQ  CX, R11; \
	XORL  M, M; \
	XORL  F, F; \
	ZSTEP(aoff, M, F, HS, 0, 0, end); \
	ZSTEP(aoff+64, M, F, HS, 32, 16, end); \
	ZSTEP(aoff+128, M, F, HS, 64, 32, end); \
	ZSTEP(aoff+192, M, F, HS, 96, 48, end); \
end:

// HROW points SI at row BX's halves and takes the row through HMAC, then
// finds the next row of R14 and goes to again, or falls through when there
// is none.
#define HROW(HCOLS, again) \
	MOVQ         BX, SI; \
	IMULQ        R9, SI; \
	ADDQ         AX, SI; \
	VPBROADCASTW hcur(SP)(BX*2), Y7; \
	HCOLS(HMAC); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JNZ          again

// HSBLOCK is SBLOCK for the FP16 body, over every segment in turn with the
// accumulators in registers: in a segment, the same groups, masked a group
// ahead by ZMASK, and the same walk of the rows that are not ±0, AX at a
// group's first row of halves and R9 a row of them in bytes. A group whose
// rows all take HMAC (R10 is R14) runs them in a loop of its own; in any
// other, a row not in R10 goes as in SBLOCK, to ZMACF or ZMAC by its
// threshold, on the float32 weights (SI doubled, less hdelta).
#define HSBLOCK(COLS, HCOLS, FIN, seg, m0, group, m1, visit, frow, vrow, slow, masked, next, segend, fin) \
	COLS(PLOAD); \
seg: \
	MOVQ         segrows(SP), R8; \
	GROUP(R8); \
	ZMASK(0, R14, R10, hcur, m0); \
group: \
	LEAQ         -64(R8), R11; \
	TESTQ        R11, R11; \
	JLE          visit; \
	GROUP(R11); \
	ZMASK(256, R13, BX, hnext, m1); \
	MOVQ         BX, fnext(SP); \
visit: \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JZ           next; \
	CMPQ         R10, R14; \
	JNE          vrow; \
frow: \
	LEAQ         -1(R14), R11; \
	ANDQ         R11, R14; \
	HROW(HCOLS, frow); \
	JMP          next; \
vrow: \
	LEAQ         -1(R14), R11; \
	ANDQ         R11, R14; \
	BTQ          BX, R10; \
	JCC          slow; \
	HROW(HCOLS, vrow); \
	JMP          next; \
slow: \
	MOVQ         BX, SI; \
	IMULQ        R9, SI; \
	ADDQ         AX, SI; \
	SHLQ         $1, SI; \
	SUBQ         hdelta(SP), SI; \
	VBROADCASTSS (DX)(BX*4), Z7; \
	MOVL         (DX)(BX*4), R11; \
	ANDL         $0x7fffffff, R11; \
	CMPL         R11, (R12)(BX*4); \
	JCS          masked; \
	COLS(ZMACF); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JNZ          vrow; \
	JMP          next; \
masked: \
	COLS(ZMAC); \
	XORL         BX, BX; \
	BSFQ         R14, BX; \
	JNZ          vrow; \
next: \
	SUBQ         $64, R8; \
	JLE          segend; \
	MOVQ         R13, R14; \
	MOVQ         fnext(SP), R10; \
	VMOVDQU64    hnext(SP), Z0; \
	VMOVDQU64    Z0, hcur(SP); \
	VMOVDQU64    hnext+64(SP), Z0; \
	VMOVDQU64    Z0, hcur+64(SP); \
	ADDQ         $256, DX; \
	ADDQ         $256, R12; \
	MOVQ         R9, R11; \
	SHLQ         $6, R11; \
	ADDQ         R11, AX; \
	JMP          group; \
segend: \
	DECQ         segs(SP); \
	JZ           fin; \
	MOVQ         sega(SP), DX; \
	ADDQ         asegb(SP), DX; \
	MOVQ         DX, sega(SP); \
	MOVQ         segt(SP), R12; \
	ADDQ         tsegb(SP), R12; \
	MOVQ         R12, segt(SP); \
	MOVQ         segh(SP), AX; \
	ADDQ         hsegb(SP), AX; \
	MOVQ         AX, segh(SP); \
	JMP          seg; \
fin: \
	FIN

// func halfMulAddPanelAVX512FP16(acc, a, w []float32, wh []uint16, stride int, thr []uint32, g PanelRun) (n int, ok bool)
//
// halfMulAddPanelAVX512 with thresholds (thr != nil) over the g.Segs
// segments of g (g.Rows > 0 rows each, g.Segs > 0), wh the halves of w,
// element for element: the same blocks, ok and rows, segment after segment,
// but a row whose activation is a half at or above its threshold multiplies
// in FP16.
TEXT ·halfMulAddPanelAVX512FP16(SB), NOSPLIT, $336-169
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	MOVQ         a_base+24(FP), DX
	MOVQ         wh_base+72(FP), AX
	MOVQ         stride+96(FP), R9
	MOVQ         thr_base+104(FP), R12
	SHLQ         $1, R9 // a row of wh, in bytes
	LEAQ         (AX)(AX*1), R10
	SUBQ         w_base+48(FP), R10
	MOVQ         R10, hdelta(SP)
	MOVQ         g_Rows+128(FP), R10
	MOVQ         R10, segrows(SP)
	MOVQ         g_Segs+136(FP), R10
	MOVQ         R10, segs(SP)
	CMPQ         R10, $1
	JEQ          lanes
	MOVQ         g_ASeg+144(FP), R10
	SHLQ         $2, R10
	MOVQ         R10, asegb(SP)
	MOVQ         g_WSeg+152(FP), R10
	MOVQ         R10, R11
	SHLQ         $2, R10
	MOVQ         R10, tsegb(SP)
	IMULQ        R9, R11
	MOVQ         R11, hsegb(SP)
	MOVQ         DX, sega(SP)
	MOVQ         R12, segt(SP)
	MOVQ         AX, segh(SP)
lanes:
	VPBROADCASTD halfLanes<>+0(SB), Z15
	VPBROADCASTD halfLanes<>+16(SB), Z14
	VPBROADCASTD halfLanes<>+8(SB), Z13
	VPBROADCASTD halfLanes<>+12(SB), Z12
	CMPQ         CX, $64
	JGE          hblock64
	CMPQ         CX, $32
	JGE          hblock32
	HSBLOCK(ZCOLS16, HCOLS16, ZFINISH(ZCOLS16, 16), seg16, m016, group16, m116, visit16, frow16, vrow16, slow16, masked16, next16, segend16, fin16)
hblock32:
	HSBLOCK(ZCOLS32, HCOLS32, ZFINISH(ZCOLS32, 32), seg32, m032, group32, m132, visit32, frow32, vrow32, slow32, masked32, next32, segend32, fin32)
hblock64:
	HSBLOCK(ZCOLS64, HCOLS64, ZFINISH(ZCOLS64, 64), seg64, m064, group64, m164, visit64, frow64, vrow64, slow64, masked64, next64, segend64, fin64)
done:
	MOVQ         AX, n+160(FP)
	SETEQ        ok+168(FP) // ZF is still the block's KORTESTW
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

// PZERO starts an accumulator at +0.
#define PZERO(off, ACC) VPXOR ACC, ACC, ACC

// BADD adds the bias to an accumulator, the accumulator first as in the Go
// loop's acc + bias[c].
#define BADD(off, ACC) VADDPS off(BX), ACC, ACC

// PSAT stores an accumulator as the converter does: clipped to ±HalfMax (Y6,
// Y7; MAX then MIN, as ClipRow) and through HALF8. The accumulator is finite
// and the bounds are not zero, so the operands' order changes nothing, the
// clip is exact and HALF8 is RoundHalf.
#define PSAT(off, ACC) \
	VMAXPS  Y6, ACC, Y0; \
	VMINPS  Y7, Y0, Y0; \
	VPAND   Y15, Y0, Y1; \
	HALF8; \
	VMOVUPS Y3, off(DI)

// VFINISH ends a pixel's block after its last row, jumping to done with
// nothing stored when some sum is not finite. The raw form (R14 zero) tests
// and stores the sums. The finishing form does three things in order: adds
// the bias where there is one (BX not nil), tests every lane for a
// non-finite sum, and only when there is none clips, rounds and stores
// (PSAT).
#define VFINISH(COLS, width, sat, nobias, next) \
	MOVQ   $width, AX; \
	VPXOR  Y1, Y1, Y1; \
	TESTQ  R14, R14; \
	JNZ    sat; \
	COLS(PTEST); \
	VPTEST Y1, Y1; \
	JNZ    done; \
	COLS(PSTORE); \
	JMP    next; \
sat: \
	TESTQ  BX, BX; \
	JZ     nobias; \
	COLS(BADD); \
nobias: \
	COLS(PTEST); \
	VPTEST Y1, Y1; \
	JNZ    done; \
	COLS(PSAT)

// VBLOCK is the element-wise run over one block of width columns, pixel by
// pixel, CX the pixels left. A pixel's accumulators start at +0 and take
// every tap of every row, each product masked, in registers. Both operands
// step a tap (R9 bytes) at a time; at a row's end a steps on R12 bytes and w
// R13 to the row's next, R11 counting the rows down from vrows. After
// VFINISH a steps on vapixel bytes to the next pixel's first tap, w back by
// vwback to its first, and out a tap's width to the next pixel.
#define VBLOCK(COLS, width, pixel, row, tap, sat, nobias, next) \
pixel: \
	MOVQ vrows(SP), R11; \
	COLS(PZERO); \
row: \
	MOVQ R10, R8; \
tap: \
	COLS(VMAC); \
	ADDQ R9, DX; \
	ADDQ R9, SI; \
	DECQ R8; \
	JNZ  tap; \
	ADDQ R12, DX; \
	ADDQ R13, SI; \
	DECQ R11; \
	JNZ  row; \
	VFINISH(COLS, width, sat, nobias, next); \
next: \
	ADDQ vapixel(SP), DX; \
	SUBQ vwback(SP), SI; \
	ADDQ R9, DI; \
	DECQ CX; \
	JNZ  pixel; \
	JMP  done

// The frame's locals: a pixel's rows, and the steps from one pixel's last row
// to the next pixel's first tap in a (vapixel) and back to the first tap in w
// (vwback), in bytes.
#define vrows 0
#define vapixel 8
#define vwback 16

// func halfMulAddVecAVX2(out, a, w, bias []float32, g VecRun, finish bool) (n, done int)
//
// For the g.Pixels pixels p in turn: the sums from +0 of
// R(a[p*APixel+r*ARow+t*Stride+c]*w[r*WRow+t*Stride+c]) over the rows r and
// in each the taps t in ascending order, for the first n columns c, n the
// widest block of 32, 16 and 8 columns that the len(out) - (Pixels-1)*Stride
// columns of a pixel hold (at least 8); g.Pixels, g.Taps and g.Rows > 0.
// Raw (finish false), a pixel's sums are stored at out[p*Stride+c] under the
// panel's block rule: all finite, stored; else nothing. With finish, bias[c]
// (bias nil: none) is added to each first, and what is stored is the sum
// clipped to ±HalfMax and rounded, only if every sum of the block is finite
// after the add. done is how many pixels were stored: the walk stops at the
// first it refuses, which is the Go loop's from its first row.
TEXT ·halfMulAddVecAVX2(SB), NOSPLIT, $24-176
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         a_base+24(FP), DX
	MOVQ         w_base+48(FP), SI
	MOVQ         bias_base+72(FP), BX
	MOVQ         g_Stride+96(FP), R9
	MOVQ         g_Taps+104(FP), R10
	MOVQ         g_Rows+112(FP), R11
	MOVBQZX      finish+152(FP), R14
	SHLQ         $2, R9 // a tap, in bytes
	MOVQ         R11, vrows(SP)
	MOVQ         R10, R8
	IMULQ        R9, R8 // a row's taps, in bytes
	MOVQ         g_ARow+120(FP), R12
	SHLQ         $2, R12
	MOVQ         g_APixel+144(FP), AX
	SHLQ         $2, AX
	MOVQ         R12, R13
	IMULQ        R11, R13
	SUBQ         R13, AX
	MOVQ         AX, vapixel(SP)
	SUBQ         R8, R12
	MOVQ         g_WRow+128(FP), R13
	SHLQ         $2, R13
	MOVQ         R13, AX
	IMULQ        R11, AX
	MOVQ         AX, vwback(SP)
	SUBQ         R8, R13
	MOVQ         g_Pixels+136(FP), AX
	DECQ         AX
	IMULQ        g_Stride+96(FP), AX
	SUBQ         AX, CX
	MOVQ         CX, R8 // a pixel's columns
	MOVQ         g_Pixels+136(FP), CX
	LANECONSTS(16)
	VPBROADCASTD halfLanes<>+20(SB), Y7
	VXORPS       Y12, Y7, Y6
	CMPQ         R8, $32
	JGE          vblock32
	CMPQ         R8, $16
	JGE          vblock16
	VBLOCK(COLS8, 8, pixel8, row8, tap8, sat8, nobias8, next8)
vblock16:
	VBLOCK(COLS16, 16, pixel16, row16, tap16, sat16, nobias16, next16)
vblock32:
	VBLOCK(COLS32, 32, pixel32, row32, tap32, sat32, nobias32, next32)
done:
	MOVQ         g_Pixels+136(FP), R8
	SUBQ         CX, R8 // CX pixels left, the first of them refused
	MOVQ         AX, n+160(FP)
	MOVQ         R8, done+168(FP)
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
