// AVX2 lanes for the plain-float32 row primitives of floatrow.go and for the
// quantizer's round-and-saturate loop (Quantizer.roundInto). No routine rounds
// through a narrower format and none bails: every lane does what the scalar
// instruction of the Go loop does, NaN and Inf included, so each routine takes
// every whole block of its operands and the Go loops take only the tails
// (DESIGN.md §7.1.3). No FMA: a lane is MULSS then ADDSS, twice rounded.
//
// VEX encodings only, and VZEROUPPER before every RET (halfrow_amd64.s says
// why); TestAsmIsVEXOnly scans this file with that one.

#include "textflag.h"

// roundMagic of quant.go, 1.5 * 2^52 as a float64.
DATA quantMagic<>+0(SB)/8, $0x4338000000000000
GLOBL quantMagic<>(SB), RODATA|NOPTR, $8

// NEXTROW closes one row of a column block: R11 steps to the block's weights
// in the next row, BX to the next row. A row opens with its activation
// broadcast into Y7; every row is computed, ±0 activations included.
#define NEXTROW(row) \
	ADDQ R9, R11; \
	INCQ BX; \
	CMPQ BX, R8; \
	JLT  row

// MAC is eight (four) lanes of acc += a*w, the weights at off(R11) and the
// activation in A, through P. The operand order is the one the compiler gives
// the Go loop's acc[c] += av*wv — MULSS av, wv then ADDSS acc, product: the
// weight is the multiply's first source and the product the add's — so that two
// NaNs meeting in a lane leave the payload they leave there.
#define MAC(off, A, P, ACC) \
	VMOVUPS off(R11), P; \
	VMULPS  A, P, P; \
	VADDPS  ACC, P, ACC

// func mulAddPanelAVX2(acc, a, w []float32, stride int)
//
// acc[c] += a[i]*w[i*stride+c] for the rows i of a in ascending order, len(acc)
// a multiple of 4 and len(a) > 0. The columns go in blocks of 16, 12, 8 and 4; a
// block's accumulators are loaded once, stay in registers across all the rows
// and are stored once, so a row's add waits for the previous row's add and
// for nothing in memory.
TEXT ·mulAddPanelAVX2(SB), NOSPLIT, $0-80
	MOVQ    acc_base+0(FP), DI
	MOVQ    acc_len+8(FP), CX
	MOVQ    a_base+24(FP), DX
	MOVQ    a_len+32(FP), R8
	MOVQ    w_base+48(FP), SI
	MOVQ    stride+72(FP), R9
	SHLQ    $2, R9 // a row of w, in bytes
	XORQ    AX, AX
cols:
	MOVQ    CX, R12
	SUBQ    AX, R12
	LEAQ    (SI)(AX*4), R11
	XORQ    BX, BX
	CMPQ    R12, $16
	JGE     block16
	CMPQ    R12, $12
	JGE     block12
	CMPQ    R12, $8
	JGE     block8
	CMPQ    R12, $4
	JGE     block4
	VZEROUPPER
	RET
block16:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
row16:
	VBROADCASTSS (DX)(BX*4), Y7
	MAC(0, Y7, Y2, Y0)
	MAC(32, Y7, Y3, Y1)
	NEXTROW(row16)
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	ADDQ    $16, AX
	JMP     cols
block12:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), X1
row12:
	VBROADCASTSS (DX)(BX*4), Y7
	MAC(0, Y7, Y2, Y0)
	MAC(32, X7, X3, X1)
	NEXTROW(row12)
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS X1, 32(DI)(AX*4)
	ADDQ    $12, AX
	JMP     cols
block8:
	VMOVUPS (DI)(AX*4), Y0
row8:
	VBROADCASTSS (DX)(BX*4), Y7
	MAC(0, Y7, Y2, Y0)
	NEXTROW(row8)
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     cols
block4:
	VMOVUPS (DI)(AX*4), X0
row4:
	VBROADCASTSS (DX)(BX*4), Y7
	MAC(0, X7, X2, X0)
	NEXTROW(row4)
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX
	JMP     cols

// func quantRoundAVX2(dst, src []float32, scale, satLo, satHi, vLo, vHi, floor float32)
//
// Quantizer.roundInto over whole chunks of eight, len(src) a multiple of 8.
// Every lane takes the default case's arithmetic — float64(f)/float64(scale),
// + roundMagic - roundMagic in float64, back to float32, times scale — and the
// switch's other cases are blended over it, the last blend winning, so they
// run in the reverse of the switch's order: unordered -> +0, f <= satLo -> vLo,
// f < floor -> floor, f >= satHi -> vHi. The quotient of a lane that a blend
// replaces may be anything (Inf, NaN, far out of range): it is never stored.
TEXT ·quantRoundAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS scale+48(FP), Y13
	VBROADCASTSS satLo+52(FP), Y11
	VBROADCASTSS satHi+56(FP), Y12
	VBROADCASTSS vLo+60(FP), Y8
	VBROADCASTSS vHi+64(FP), Y9
	VBROADCASTSS floor+68(FP), Y10
	VCVTPS2PD    X13, Y15
	VBROADCASTSD quantMagic<>(SB), Y14
	XORQ         AX, AX
	ANDQ         $-8, CX
	JZ           done
loop:
	VMOVUPS      (SI)(AX*4), Y0
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2
	VDIVPD       Y15, Y1, Y1
	VDIVPD       Y15, Y2, Y2
	VADDPD       Y14, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VSUBPD       Y14, Y1, Y1
	VSUBPD       Y14, Y2, Y2
	VCVTPD2PSY   Y1, X1
	VCVTPD2PSY   Y2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VMULPS       Y13, Y1, Y1
	VCMPPS       $3, Y0, Y0, Y3 // unordered
	VANDNPS      Y1, Y3, Y1
	VCMPPS       $2, Y11, Y0, Y3 // f <= satLo
	VBLENDVPS    Y3, Y8, Y1, Y1
	VCMPPS       $1, Y10, Y0, Y3 // f < floor
	VBLENDVPS    Y3, Y10, Y1, Y1
	VCMPPS       $13, Y12, Y0, Y3 // f >= satHi
	VBLENDVPS    Y3, Y9, Y1, Y1
	VMOVUPS      Y1, (DI)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop
done:
	VZEROUPPER
	RET

// The three rows below take len(v) (len(x)) a multiple of 8. VMAXPS and VMINPS
// return the second source — the first operand as written here — when either
// operand is NaN or both are zeros, which is the else branch of each compare
// in floatrow.go.

// func maxRowAVX2(m, v []float32)
//
// m[i] = v[i] > m[i] ? v[i] : m[i], as MAX(v, m).
TEXT ·maxRowAVX2(SB), NOSPLIT, $0-48
	MOVQ    m_base+0(FP), DI
	MOVQ    v_base+24(FP), SI
	MOVQ    v_len+32(FP), CX
	XORQ    AX, AX
	ANDQ    $-8, CX
	JZ      done
loop:
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS  (DI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	VZEROUPPER
	RET

// func reluRowAVX2(out, x []float32)
//
// out[i] = x[i] > 0 ? x[i] : +0, as MAX(x, +0).
TEXT ·reluRowAVX2(SB), NOSPLIT, $0-48
	MOVQ    out_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    x_len+32(FP), CX
	VXORPS  Y7, Y7, Y7
	XORQ    AX, AX
	ANDQ    $-8, CX
	JZ      done
loop:
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS  Y7, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	VZEROUPPER
	RET

// func clipRowAVX2(out, x []float32, lo, hi float32)
//
// t = lo > x[i] ? lo : x[i], as MAX(lo, x); out[i] = hi < t ? hi : t, as
// MIN(hi, t).
TEXT ·clipRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         out_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS lo+48(FP), Y6
	VBROADCASTSS hi+52(FP), Y7
	XORQ         AX, AX
	ANDQ         $-8, CX
	JZ           done
loop:
	VMAXPS  (SI)(AX*4), Y6, Y0
	VMINPS  Y0, Y7, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	VZEROUPPER
	RET

// func addRowAVX2(out, a, b []float32)
//
// out[i] = a[i] + b[i], a the add's first source as in the Go loop: where two
// NaNs meet, a's payload is kept.
TEXT ·addRowAVX2(SB), NOSPLIT, $0-72
	MOVQ    out_base+0(FP), DI
	MOVQ    a_base+24(FP), SI
	MOVQ    a_len+32(FP), CX
	MOVQ    b_base+48(FP), DX
	XORQ    AX, AX
	ANDQ    $-8, CX
	JZ      done
loop:
	VMOVUPS (SI)(AX*4), Y0
	VADDPS  (DX)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	VZEROUPPER
	RET

// The diff scan settles a chunk of eight as tensor elements in the lanes
// (NEQ8): a zero mask means only ±0 or NaN payloads differ there. It settles
// the row's end chunk first in each direction, since a row the replay finds
// dirty is most often dirty at both ends, then crosses equal runs as bit
// patterns four chunks a step (DIFF32: VPXOR of each pair of chunks, the four
// differences ORed into one VPTEST), and from a step with a mismatch goes a
// chunk at a time, back to the steps after a chunk that settles equal.

// NEQ8(off, I) is the mask, in BX, of the lanes of the chunks at off(SI)(I*4)
// and off(DI)(I*4) whose elements differ: unordered-or-unequal (so +0 equals
// -0) and not NaN on both sides.
#define NEQ8(off, I) \
	VMOVUPS   off(SI)(I*4), Y4; \
	VMOVUPS   off(DI)(I*4), Y5; \
	VCMPPS    $4, Y5, Y4, Y6; \
	VCMPPS    $3, Y4, Y4, Y7; \
	VCMPPS    $3, Y5, Y5, Y8; \
	VANDPS    Y7, Y8, Y7; \
	VANDNPS   Y6, Y7, Y6; \
	VMOVMSKPS Y6, BX

// DIFF8(off, I, D) is the bit difference of the chunks at off(SI)(I*4) and
// off(DI)(I*4), in D.
#define DIFF8(off, I, D) \
	VMOVDQU off(SI)(I*4), D; \
	VPXOR   off(DI)(I*4), D, D

// DIFF32(off, I) tests the bit differences of the four chunks from
// off(SI)(I*4) on.
#define DIFF32(off, I) \
	DIFF8(off, I, Y0); \
	DIFF8(off+32, I, Y1); \
	DIFF8(off+64, I, Y2); \
	DIFF8(off+96, I, Y3); \
	VPOR   Y0, Y1, Y0; \
	VPOR   Y2, Y3, Y2; \
	VPOR   Y0, Y2, Y0; \
	VPTEST Y0, Y0

// func diffEndsAVX2(a, b []float32) (first, last int)
//
// DiffEnds for len(a) ≥ 8, len(b) ≥ len(a). Forward, AX is the next chunk or
// step. Fewer than 32 elements after the last step are tested as one step
// over [len-32, len), and fewer than 8 as the chunk [len-8, len): either may
// overlap what came before, which is safe, since the scan only reads and an
// element settled equal once is equal the second time. Backward, R10 is the
// end of the next chunk or step, and the scan stops at the chunk that holds
// first, whose mask R11 keeps.
TEXT ·diffEndsAVX2(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	LEAQ -32(CX), DX // the last step starts here
	LEAQ -8(CX), R8  // the last chunk starts here
	NEQ8(0, AX)
	BSFL BX, R9
	JNZ  found
fwd32:
	CMPQ   AX, DX
	JGT    fwdtail
	DIFF32(0, AX)
	JNZ    fwdchunk
	ADDQ   $32, AX
	JMP    fwd32
fwdtail:
	CMPQ   AX, CX
	JGE    equal
	TESTQ  DX, DX
	JL     fwdlast
	DIFF32(0, DX)
	JZ     equal
fwdlast:
	CMPQ AX, R8
	JLE  fwdchunk
	MOVQ R8, AX
fwdchunk:
	NEQ8(0, AX)
	BSFL BX, R9
	JNZ  found
	ADDQ $8, AX
	JMP  fwd32
found:
	ADDQ AX, R9
	MOVQ R9, first+48(FP)
	MOVQ BX, R11
	MOVQ CX, R10
	LEAQ 32(AX), DX // a step needs R10 ≥ DX
	LEAQ 8(AX), R8  // a chunk needs R10 > R8
	CMPQ R10, R8
	JLE  inchunk
	NEQ8(-32, R10)
	BSRL BX, R9
	JNZ  bwdfound
bwd32:
	CMPQ   R10, DX
	JLT    bwd8
	DIFF32(-128, R10)
	JNZ    bwd8
	SUBQ   $32, R10
	JMP    bwd32
bwd8:
	CMPQ R10, R8
	JLE  inchunk
	NEQ8(-32, R10)
	BSRL BX, R9
	JNZ  bwdfound
	SUBQ $8, R10
	JMP  bwd32
bwdfound:
	LEAQ -8(R10)(R9*1), R9
	MOVQ R9, last+56(FP)
	VZEROUPPER
	RET
inchunk:
	BSRL R11, R9
	ADDQ AX, R9
	MOVQ R9, last+56(FP)
	VZEROUPPER
	RET
equal:
	MOVQ CX, first+48(FP)
	MOVQ $-1, last+56(FP)
	VZEROUPPER
	RET
