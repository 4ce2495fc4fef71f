// AVX2+FMA row kernels for the owned transcendentals (exp.go) and the Adam
// update (adam.go). Each lane runs exactly the scalar port's operations: a
// math.FMA step as VFMADD213PD/VFNMADD231PD, every other step as its own
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD, all correctly rounded like their
// scalar forms, so a lane's result equals the scalar function bit for bit.
// The exp row kernels write whole 4-lane groups and return how many
// elements they wrote; they stop before a group with any lane outside the
// plain exponent range (see EXP4), which the Go caller finishes with the
// scalar port.

#include "textflag.h"

// +0: LOG2E = 1.4426950408889634
DATA expconsts<>+0(SB)/8, $0x3FF71547652B82FE
DATA expconsts<>+8(SB)/8, $0x3FF71547652B82FE
DATA expconsts<>+16(SB)/8, $0x3FF71547652B82FE
DATA expconsts<>+24(SB)/8, $0x3FF71547652B82FE
// +32: LN2U = 0.693147180559663
DATA expconsts<>+32(SB)/8, $0x3FE62E42FEFA3000
DATA expconsts<>+40(SB)/8, $0x3FE62E42FEFA3000
DATA expconsts<>+48(SB)/8, $0x3FE62E42FEFA3000
DATA expconsts<>+56(SB)/8, $0x3FE62E42FEFA3000
// +64: LN2L = 2.8235290563031577e-13
DATA expconsts<>+64(SB)/8, $0x3D53DE6AF278ECE6
DATA expconsts<>+72(SB)/8, $0x3D53DE6AF278ECE6
DATA expconsts<>+80(SB)/8, $0x3D53DE6AF278ECE6
DATA expconsts<>+88(SB)/8, $0x3D53DE6AF278ECE6
// +96: SIXTEENTH = 0.0625
DATA expconsts<>+96(SB)/8, $0x3FB0000000000000
DATA expconsts<>+104(SB)/8, $0x3FB0000000000000
DATA expconsts<>+112(SB)/8, $0x3FB0000000000000
DATA expconsts<>+120(SB)/8, $0x3FB0000000000000
// +128: T8 = 2.48015873015873e-05
DATA expconsts<>+128(SB)/8, $0x3EFA01A01A01A01A
DATA expconsts<>+136(SB)/8, $0x3EFA01A01A01A01A
DATA expconsts<>+144(SB)/8, $0x3EFA01A01A01A01A
DATA expconsts<>+152(SB)/8, $0x3EFA01A01A01A01A
// +160: T7 = 0.0001984126984126984
DATA expconsts<>+160(SB)/8, $0x3F2A01A01A01A01A
DATA expconsts<>+168(SB)/8, $0x3F2A01A01A01A01A
DATA expconsts<>+176(SB)/8, $0x3F2A01A01A01A01A
DATA expconsts<>+184(SB)/8, $0x3F2A01A01A01A01A
// +192: T6 = 0.001388888888888889
DATA expconsts<>+192(SB)/8, $0x3F56C16C16C16C17
DATA expconsts<>+200(SB)/8, $0x3F56C16C16C16C17
DATA expconsts<>+208(SB)/8, $0x3F56C16C16C16C17
DATA expconsts<>+216(SB)/8, $0x3F56C16C16C16C17
// +224: T5 = 0.008333333333333333
DATA expconsts<>+224(SB)/8, $0x3F81111111111111
DATA expconsts<>+232(SB)/8, $0x3F81111111111111
DATA expconsts<>+240(SB)/8, $0x3F81111111111111
DATA expconsts<>+248(SB)/8, $0x3F81111111111111
// +256: T4 = 0.041666666666666664
DATA expconsts<>+256(SB)/8, $0x3FA5555555555555
DATA expconsts<>+264(SB)/8, $0x3FA5555555555555
DATA expconsts<>+272(SB)/8, $0x3FA5555555555555
DATA expconsts<>+280(SB)/8, $0x3FA5555555555555
// +288: T3 = 0.16666666666666666
DATA expconsts<>+288(SB)/8, $0x3FC5555555555555
DATA expconsts<>+296(SB)/8, $0x3FC5555555555555
DATA expconsts<>+304(SB)/8, $0x3FC5555555555555
DATA expconsts<>+312(SB)/8, $0x3FC5555555555555
// +320: HALF = 0.5
DATA expconsts<>+320(SB)/8, $0x3FE0000000000000
DATA expconsts<>+328(SB)/8, $0x3FE0000000000000
DATA expconsts<>+336(SB)/8, $0x3FE0000000000000
DATA expconsts<>+344(SB)/8, $0x3FE0000000000000
// +352: ONE = 1
DATA expconsts<>+352(SB)/8, $0x3FF0000000000000
DATA expconsts<>+360(SB)/8, $0x3FF0000000000000
DATA expconsts<>+368(SB)/8, $0x3FF0000000000000
DATA expconsts<>+376(SB)/8, $0x3FF0000000000000
// +384: TWO = 2
DATA expconsts<>+384(SB)/8, $0x4000000000000000
DATA expconsts<>+392(SB)/8, $0x4000000000000000
DATA expconsts<>+400(SB)/8, $0x4000000000000000
DATA expconsts<>+408(SB)/8, $0x4000000000000000
// +416: EMIN = -1022
DATA expconsts<>+416(SB)/8, $0xC08FF00000000000
DATA expconsts<>+424(SB)/8, $0xC08FF00000000000
DATA expconsts<>+432(SB)/8, $0xC08FF00000000000
DATA expconsts<>+440(SB)/8, $0xC08FF00000000000
// +448: EMAX = 1023
DATA expconsts<>+448(SB)/8, $0x408FF80000000000
DATA expconsts<>+456(SB)/8, $0x408FF80000000000
DATA expconsts<>+464(SB)/8, $0x408FF80000000000
DATA expconsts<>+472(SB)/8, $0x408FF80000000000
// +480: P0 = -0.9643991794250523
DATA expconsts<>+480(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA expconsts<>+488(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA expconsts<>+496(SB)/8, $0xBFEEDC5BAAFD6F4B
DATA expconsts<>+504(SB)/8, $0xBFEEDC5BAAFD6F4B
// +512: P1 = -99.28772310019185
DATA expconsts<>+512(SB)/8, $0xC058D26A0E26682D
DATA expconsts<>+520(SB)/8, $0xC058D26A0E26682D
DATA expconsts<>+528(SB)/8, $0xC058D26A0E26682D
DATA expconsts<>+536(SB)/8, $0xC058D26A0E26682D
// +544: P2 = -1614.6876844170845
DATA expconsts<>+544(SB)/8, $0xC0993AC030580563
DATA expconsts<>+552(SB)/8, $0xC0993AC030580563
DATA expconsts<>+560(SB)/8, $0xC0993AC030580563
DATA expconsts<>+568(SB)/8, $0xC0993AC030580563
// +576: Q0 = 112.81167849163293
DATA expconsts<>+576(SB)/8, $0x405C33F28A581B86
DATA expconsts<>+584(SB)/8, $0x405C33F28A581B86
DATA expconsts<>+592(SB)/8, $0x405C33F28A581B86
DATA expconsts<>+600(SB)/8, $0x405C33F28A581B86
// +608: Q1 = 2235.4883906010045
DATA expconsts<>+608(SB)/8, $0x40A176FA0E5535FA
DATA expconsts<>+616(SB)/8, $0x40A176FA0E5535FA
DATA expconsts<>+624(SB)/8, $0x40A176FA0E5535FA
DATA expconsts<>+632(SB)/8, $0x40A176FA0E5535FA
// +640: Q2 = 4844.063053251255
DATA expconsts<>+640(SB)/8, $0x40B2EC102442040C
DATA expconsts<>+648(SB)/8, $0x40B2EC102442040C
DATA expconsts<>+656(SB)/8, $0x40B2EC102442040C
DATA expconsts<>+664(SB)/8, $0x40B2EC102442040C
// +672: RATIONAL = 0.625
DATA expconsts<>+672(SB)/8, $0x3FE4000000000000
DATA expconsts<>+680(SB)/8, $0x3FE4000000000000
DATA expconsts<>+688(SB)/8, $0x3FE4000000000000
DATA expconsts<>+696(SB)/8, $0x3FE4000000000000
// +704: SAT = 44.014845965556525
DATA expconsts<>+704(SB)/8, $0x404601E678FC457B
DATA expconsts<>+712(SB)/8, $0x404601E678FC457B
DATA expconsts<>+720(SB)/8, $0x404601E678FC457B
DATA expconsts<>+728(SB)/8, $0x404601E678FC457B
// +736: SIGN
DATA expconsts<>+736(SB)/8, $0x8000000000000000
DATA expconsts<>+744(SB)/8, $0x8000000000000000
DATA expconsts<>+752(SB)/8, $0x8000000000000000
DATA expconsts<>+760(SB)/8, $0x8000000000000000
// +768: ABS
DATA expconsts<>+768(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA expconsts<>+776(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA expconsts<>+784(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA expconsts<>+792(SB)/8, $0x7FFFFFFFFFFFFFFF
// +800: BIAS = 4 x int32 1023
DATA expconsts<>+800(SB)/8, $0x000003FF000003FF
DATA expconsts<>+808(SB)/8, $0x000003FF000003FF
GLOBL expconsts<>(SB), RODATA|NOPTR, $816


// Constant block offsets (each a 32-byte 4-lane broadcast; BIAS is 4 int32).
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define T8 128
#define T7 160
#define T6 192
#define T5 224
#define T4 256
#define T3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define EMIN 416
#define EMAX 448
#define P0 480
#define P1 512
#define P2 544
#define Q0 576
#define Q1 608
#define Q2 640
#define RATIONAL 672
#define SAT 704
#define SIGN 736
#define ABS 768
#define BIAS 800

// EXP4: Y0 = Exp(Y0) lane-wise, the FMA branch of math.Exp op for op: the
// exponent e = round-to-even(x·log2e) (VCVTPD2DQ under the default rounding
// mode, as CVTSD2SL), the two-step FMA reduction by ln 2, the Taylor series
// on x/16 and its four squarings, and the scale by 2**e built in the
// exponent field. When any lane's e falls outside [-1022, 1023] — NaN and
// ±Inf convert to the out-of-range integer indefinite, overflow gives
// e >= 1024, a denormal or zero result e <= -1023 — it jumps to bail before
// writing anything. Clobbers Y1-Y4 and AX.
#define EXP4 \
	VMULPD       expconsts<>+LOG2E(SB), Y0, Y1 \
	VCVTPD2DQY   Y1, X2 \
	VCVTDQ2PD    X2, Y1 \
	VCMPPD       $0x1D, expconsts<>+EMIN(SB), Y1, Y3 \
	VCMPPD       $0x12, expconsts<>+EMAX(SB), Y1, Y4 \
	VANDPD       Y4, Y3, Y3 \
	VMOVMSKPD    Y3, AX \
	CMPL         AX, $15 \
	JNE          bail \
	VFNMADD231PD expconsts<>+LN2U(SB), Y1, Y0 \
	VFNMADD231PD expconsts<>+LN2L(SB), Y1, Y0 \
	VMULPD       expconsts<>+SIXTEENTH(SB), Y0, Y0 \
	VMOVUPD      expconsts<>+T8(SB), Y1 \
	VFMADD213PD  expconsts<>+T7(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+T6(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+T5(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+T4(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+T3(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+HALF(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+ONE(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expconsts<>+TWO(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expconsts<>+TWO(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expconsts<>+TWO(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expconsts<>+TWO(SB), Y0, Y1 \
	VFMADD213PD  expconsts<>+ONE(SB), Y1, Y0 \
	VPADDD       expconsts<>+BIAS(SB), X2, X2 \
	VPMOVZXDQ    X2, Y2 \
	VPSLLQ       $52, Y2, Y2 \
	VMULPD       Y2, Y0, Y0

// func expRowAVX2(dst, src *float64, n int) int
//
// dst[i] = Exp(src[i]) for whole 4-lane groups; returns the count written.
TEXT ·expRowAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX

loop:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     bail
	VMOVUPD (SI)(BX*8), Y0
	EXP4
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop

bail:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidRowAVX2(dst, src *float64, n int) int
//
// dst[i] = 1/(1+Exp(-src[i])) for whole 4-lane groups; returns the count
// written.
TEXT ·sigmoidRowAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX

loop:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     bail
	VMOVUPD (SI)(BX*8), Y0
	VXORPD  expconsts<>+SIGN(SB), Y0, Y0
	EXP4
	VADDPD  expconsts<>+ONE(SB), Y0, Y0
	VMOVUPD expconsts<>+ONE(SB), Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop

bail:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhRowAVX2(dst, src *float64, n int) int
//
// dst[i] = Tanh(src[i]) for whole 4-lane groups; returns the count written.
// Every lane computes all of Tanh's regimes and blends them by |x|: the
// rational approximation below 0.625, 1-2/(Exp(2|x|)+1) with x's sign from
// there, ±1 above the saturation point, and x itself where x == ±0. The
// group bails when Exp(2|x|) would leave the plain range (|x| beyond about
// 354, or NaN/±Inf), so saturated lanes up to there stay in the kernel.
TEXT ·tanhRowAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX

loop:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     bail
	VMOVUPD (SI)(BX*8), Y6
	VANDPD  expconsts<>+ABS(SB), Y6, Y7
	VMULPD  expconsts<>+TWO(SB), Y7, Y0
	EXP4

	// |x| >= 0.625: 1 - 2/(s+1), negated where x < 0.
	VADDPD  expconsts<>+ONE(SB), Y0, Y0
	VMOVUPD expconsts<>+TWO(SB), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD expconsts<>+ONE(SB), Y0
	VSUBPD  Y1, Y0, Y1
	VANDPD  expconsts<>+SIGN(SB), Y6, Y5
	VXORPD  Y5, Y1, Y1

	// |x| < 0.625: x + x·s·P(s)/Q(s), s = x².
	VMULPD Y6, Y6, Y2
	VMULPD expconsts<>+P0(SB), Y2, Y3
	VADDPD expconsts<>+P1(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD expconsts<>+P2(SB), Y3, Y3
	VADDPD expconsts<>+Q0(SB), Y2, Y4
	VMULPD Y2, Y4, Y4
	VADDPD expconsts<>+Q1(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD expconsts<>+Q2(SB), Y4, Y4
	VMULPD Y6, Y2, Y2
	VMULPD Y3, Y2, Y2
	VDIVPD Y4, Y2, Y2
	VADDPD Y6, Y2, Y2

	VCMPPD    $0x1D, expconsts<>+RATIONAL(SB), Y7, Y3
	VBLENDVPD Y3, Y1, Y2, Y2
	VCMPPD    $0x1E, expconsts<>+SAT(SB), Y7, Y3
	VORPD     expconsts<>+ONE(SB), Y5, Y4
	VBLENDVPD Y3, Y4, Y2, Y2
	VXORPD    Y3, Y3, Y3
	VCMPPD    $0x00, Y3, Y6, Y3
	VBLENDVPD Y3, Y6, Y2, Y2
	VMOVUPD   Y2, (DI)(BX*8)
	MOVQ      DX, BX
	JMP       loop

bail:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func adamAVX(param, grad, m, v *float64, n int, k *AdamCoef) int
//
// adamScalar's loop over whole 4-lane groups, returning the count written:
//
//	m = β1·m + (1-β1)·g
//	v = β2·v + ((1-β2)·g)·g
//	param -= (lr·(m/c1)) / (√(v/c2) + ε)
//
// k points at AdamCoef's eight float64 fields in declaration order. Needs
// only AVX: no step is fused.
TEXT ·adamAVX(SB), NOSPLIT, $0-56
	MOVQ         param+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	XORQ         BX, BX

loop:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     done
	VMOVUPD (SI)(BX*8), Y8
	VMULPD  (R8)(BX*8), Y0, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y9, (R8)(BX*8)
	VMULPD  (R9)(BX*8), Y2, Y10
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(BX*8)
	VDIVPD  Y5, Y9, Y9
	VDIVPD  Y6, Y10, Y10
	VSQRTPD Y10, Y10
	VADDPD  Y7, Y10, Y10
	VMULPD  Y9, Y4, Y9
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI)(BX*8), Y11
	VSUBPD  Y9, Y11, Y11
	VMOVUPD Y11, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop

done:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET
