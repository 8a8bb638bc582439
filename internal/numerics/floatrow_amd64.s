// AVX2 lanes for the plain-float32 row primitives of floatrow.go and for the
// quantizer's round-and-saturate loop (Quantizer.roundInto). No routine rounds
// through a narrower format and none bails: every lane does what the scalar
// instruction of the Go loop does, NaN and Inf included, so each routine takes
// every whole block of its operands and the Go loops take only the tails
// (DESIGN.md 7.7). No FMA: a lane is MULSS then ADDSS, twice rounded.
//
// VEX encodings only, and VZEROUPPER before every RET (halfrow_amd64.s says
// why); TestAsmIsVEXOnly scans this file with that one.

#include "textflag.h"

// roundMagic of quant.go, 1.5 * 2^52 as a float64.
DATA quantMagic<>+0(SB)/8, $0x4338000000000000
GLOBL quantMagic<>(SB), RODATA|NOPTR, $8

// SKIPROW opens one row of a column block — R11 the block's weights in this
// row, BX the row — with its activation broadcast into Y7, or jumps to next
// when the row is skipped: under skipZero (R10 = 0) that is an activation of +0
// or -0, the shift dropping the sign; R10 = 1 keeps the result from ever being
// zero when rows may not be skipped. NEXTROW closes the row.
#define SKIPROW(next) \
	MOVL         (DX)(BX*4), R13; \
	SHLL         $1, R13; \
	ORL          R10, R13; \
	JZ           next; \
	VBROADCASTSS (DX)(BX*4), Y7

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

// func mulAddPanelAVX2(acc, a, w []float32, stride int, skipZero bool)
//
// acc[c] += a[i]*w[i*stride+c] for the rows i of a in ascending order, len(acc)
// a multiple of 4 and len(a) > 0. The columns go in blocks of 16, 8 and 4; a
// block's accumulators are loaded once, stay in registers across all the rows
// and are stored once, so a row's add waits for the previous row's add and
// for nothing in memory.
TEXT ·mulAddPanelAVX2(SB), NOSPLIT, $0-81
	MOVQ    acc_base+0(FP), DI
	MOVQ    acc_len+8(FP), CX
	MOVQ    a_base+24(FP), DX
	MOVQ    a_len+32(FP), R8
	MOVQ    w_base+48(FP), SI
	MOVQ    stride+72(FP), R9
	MOVBLZX skipZero+80(FP), R10
	XORL    $1, R10
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
	SKIPROW(next16)
	MAC(0, Y7, Y2, Y0)
	MAC(32, Y7, Y3, Y1)
next16:
	NEXTROW(row16)
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	ADDQ    $16, AX
	JMP     cols
block12:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), X1
row12:
	SKIPROW(next12)
	MAC(0, Y7, Y2, Y0)
	MAC(32, X7, X3, X1)
next12:
	NEXTROW(row12)
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS X1, 32(DI)(AX*4)
	ADDQ    $12, AX
	JMP     cols
block8:
	VMOVUPS (DI)(AX*4), Y0
row8:
	SKIPROW(next8)
	MAC(0, Y7, Y2, Y0)
next8:
	NEXTROW(row8)
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     cols
block4:
	VMOVUPS (DI)(AX*4), X0
row4:
	SKIPROW(next4)
	MAC(0, X7, X2, X0)
next4:
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
