// AVX2 lanes for ExpRow (exprow.go): eight exponentials a chunk, as two YMM of
// four float64, each lane the FMA path of math.Exp's amd64 assembly
// (src/math/exp_amd64.s, label avxfma) op for op — the same constants, the
// same rounding steps in the same order — so a lane stores the bits the
// scalar call returns (DESIGN.md §7.1.6). The routine walks whole chunks from
// the front and stops before the first one with a lane outside the band
// |x - shift| <= 700, returning how many elements it finished; the Go loop
// takes that chunk and every tail.
//
// VEX encodings only, and VZEROUPPER before every RET (halfrow_amd64.s says
// why); TestAsmIsVEXOnly scans this file with the others.

#include "textflag.h"

// Four copies of each float64 constant of math.Exp, one YMM operand apiece,
// written as that file writes them.
#define EXPCONST(off, v) \
	DATA expLanes<>+(off)(SB)/8, v; \
	DATA expLanes<>+(off+8)(SB)/8, v; \
	DATA expLanes<>+(off+16)(SB)/8, v; \
	DATA expLanes<>+(off+24)(SB)/8, v

EXPCONST(0, $1.4426950408889634073599246810018920)          // LOG2E
EXPCONST(32, $0.69314718055966295651160180568695068359375)  // LN2U
EXPCONST(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5) // the Taylor terms, highest first
EXPCONST(160, $1.9841269841269841270e-4)
EXPCONST(192, $1.3888888888888888889e-3)
EXPCONST(224, $8.3333333333333333333e-3)
EXPCONST(256, $4.1666666666666666667e-2)
EXPCONST(288, $1.6666666666666666667e-1)
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
GLOBL expLanes<>(SB), RODATA|NOPTR, $416

// The lane dwords: |d| mask, the band's edge (700 as a float32 pattern) and
// the float64 exponent bias.
DATA expBand<>+0(SB)/4, $0x7fffffff
DATA expBand<>+4(SB)/4, $0x442f0000
DATA expBand<>+8(SB)/4, $0x3ff
GLOBL expBand<>(SB), RODATA|NOPTR, $12

// EXP4 replaces the four float64 lanes of V with their exponentials, through
// P and K (the Y and X halves of two more registers). In math.Exp's terms:
// k = round(x·log₂e) in MXCSR's mode (nearest even); x -= k·LN2U, then
// k·LN2L, each fused; x /= 16; p = the Horner chain of the Taylor terms, each
// step fused; x *= p; three times x *= x + 2, and once x = x·(x + 2) + 1,
// fused; then x·2^k, 2^k built in the exponent field. Inside the band k + 1023
// is in [13, 2033], which is why math.Exp's denormal and overflow steps are
// never taken here.
#define EXP4(V, P, K) \
	VMULPD       expLanes<>+0(SB), V, P; \
	VCVTPD2DQY   P, K; \
	VCVTDQ2PD    K, P; \
	VFNMADD231PD expLanes<>+32(SB), P, V; \
	VFNMADD231PD expLanes<>+64(SB), P, V; \
	VMULPD       expLanes<>+96(SB), V, V; \
	VMOVUPD      expLanes<>+128(SB), P; \
	VFMADD213PD  expLanes<>+160(SB), V, P; \
	VFMADD213PD  expLanes<>+192(SB), V, P; \
	VFMADD213PD  expLanes<>+224(SB), V, P; \
	VFMADD213PD  expLanes<>+256(SB), V, P; \
	VFMADD213PD  expLanes<>+288(SB), V, P; \
	VFMADD213PD  expLanes<>+320(SB), V, P; \
	VFMADD213PD  expLanes<>+352(SB), V, P; \
	VMULPD       P, V, V; \
	VADDPD       expLanes<>+384(SB), V, P; \
	VMULPD       P, V, V; \
	VADDPD       expLanes<>+384(SB), V, P; \
	VMULPD       P, V, V; \
	VADDPD       expLanes<>+384(SB), V, P; \
	VMULPD       P, V, V; \
	VADDPD       expLanes<>+384(SB), V, P; \
	VFMADD213PD  expLanes<>+352(SB), P, V; \
	VPADDD       X12, K, K; \
	VPMOVZXDQ    K, P; \
	VPSLLQ       $52, P, P; \
	VMULPD       P, V, V

// func expRowAVX2(dst []float64, x []float32, shift float32) int
TEXT ·expRowAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS shift+48(FP), Y15
	VPBROADCASTD expBand<>+0(SB), Y14
	VPBROADCASTD expBand<>+4(SB), Y13
	VPBROADCASTD expBand<>+8(SB), X12
	XORQ         AX, AX
	ANDQ         $-8, CX
	JZ           done
loop:
	VMOVUPS      (SI)(AX*4), Y0
	VSUBPS       Y15, Y0, Y0 // x - shift, in float32
	VPAND        Y14, Y0, Y1
	VPCMPGTD     Y13, Y1, Y1 // past the band, ±Inf or NaN
	VPTEST       Y1, Y1
	JNZ          done
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2
	EXP4(Y1, Y3, X5)
	EXP4(Y2, Y4, X6)
	VMOVUPD      Y1, (DI)(AX*8)
	VMOVUPD      Y2, 32(DI)(AX*8)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop
done:
	MOVQ         AX, ret+56(FP)
	VZEROUPPER
	RET
