// AVX axpy microkernels for the float64 GEMM row kernels. Only commutative
// VMULPD/VADDPD (never FMA) are used, and vector lanes span output columns,
// so every output cell sees exactly the same mul-then-add rounding sequence
// as the pure-Go loops — the assembly changes speed, never bits.

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVQ BX, R15 // CPUID clobbers BX
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVQ R15, BX
	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL CX, AX
	ANDL $(1<<27 | 1<<28), AX
	CMPL AX, $(1<<27 | 1<<28)
	JNE  noavx
	// XCR0 bits 1|2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID leaf 1 ECX bit 12 (FMA) and leaf 7 EBX bit 5 (AVX2). The OS-saved
// YMM state is cpuHasAVX's check; callers combine the two.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVQ BX, R15 // CPUID clobbers BX
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  nofma
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, R9
	MOVQ R15, BX
	ANDL $(1<<12), R8
	JZ   nofma
	ANDL $(1<<5), R9
	JZ   nofma
	MOVB $1, ret+0(FP)
	RET
nofma:
	MOVQ R15, BX
	MOVB $0, ret+0(FP)
	RET

// func axpyQuadAVX64(dst, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// dst[j] = ((dst[j] + a0*b0[j]) + a1*b1[j] + a2*b2[j]) + a3*b3[j]
TEXT ·axpyQuadAVX64(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ BX, BX
	// Main loop: 8 columns per iteration as two independent 4-lane chains.
loop8:
	LEAQ 8(BX), DX
	CMPQ DX, CX
	JGT  loop4
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD 32(DI)(BX*8), Y6
	VMOVUPD (R8)(BX*8), Y5
	VMOVUPD 32(R8)(BX*8), Y7
	VMULPD  Y0, Y5, Y5
	VMULPD  Y0, Y7, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD (R9)(BX*8), Y5
	VMOVUPD 32(R9)(BX*8), Y7
	VMULPD  Y1, Y5, Y5
	VMULPD  Y1, Y7, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD (R10)(BX*8), Y5
	VMOVUPD 32(R10)(BX*8), Y7
	VMULPD  Y2, Y5, Y5
	VMULPD  Y2, Y7, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD (R11)(BX*8), Y5
	VMOVUPD 32(R11)(BX*8), Y7
	VMULPD  Y3, Y5, Y5
	VMULPD  Y3, Y7, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y4, (DI)(BX*8)
	VMOVUPD Y6, 32(DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop8
loop4:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9)(BX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R10)(BX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R11)(BX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop4
tail:
	CMPQ BX, CX
	JGE  done
	VMOVSD (DI)(BX*8), X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R9)(BX*8), X5
	VMULSD X1, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R10)(BX*8), X5
	VMULSD X2, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R11)(BX*8), X5
	VMULSD X3, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail
done:
	VZEROUPPER
	RET

// func axpyAVX64(dst, b *float64, n int, a float64)
//
// dst[j] += a * b[j]
TEXT ·axpyAVX64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ BX, BX
loop4:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop4
tail:
	CMPQ BX, CX
	JGE  done
	VMOVSD (DI)(BX*8), X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail
done:
	VZEROUPPER
	RET

// func axpyOctAVX64(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a *float64)
//
// Eight accumulation steps per call: dst[j] += a[0]*b0[j]; ... += a[7]*b7[j],
// applied strictly in argument order — the identical rounding chain as two
// back-to-back quad calls (the store/reload boundary between quads carries no
// rounding). a points at 8 contiguous coefficients. Halves the per-row call
// and bounds-check overhead of the GEMM wrappers' reduction loops.
TEXT ·axpyOctAVX64(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ b4+40(FP), R12
	MOVQ b5+48(FP), R13
	MOVQ b6+56(FP), R14
	MOVQ b7+64(FP), AX
	MOVQ n+72(FP), CX
	MOVQ a+80(FP), SI
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	VBROADCASTSD 32(SI), Y8
	VBROADCASTSD 40(SI), Y9
	VBROADCASTSD 48(SI), Y10
	VBROADCASTSD 56(SI), Y11
	XORQ BX, BX
loop4:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9)(BX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R10)(BX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R11)(BX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R12)(BX*8), Y5
	VMULPD  Y8, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R13)(BX*8), Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R14)(BX*8), Y5
	VMULPD  Y10, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (AX)(BX*8), Y5
	VMULPD  Y11, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop4
tail:
	CMPQ BX, CX
	JGE  done
	VMOVSD (DI)(BX*8), X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R9)(BX*8), X5
	VMULSD X1, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R10)(BX*8), X5
	VMULSD X2, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R11)(BX*8), X5
	VMULSD X3, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R12)(BX*8), X5
	VMULSD X8, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R13)(BX*8), X5
	VMULSD X9, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R14)(BX*8), X5
	VMULSD X10, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (AX)(BX*8), X5
	VMULSD X11, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail
done:
	VZEROUPPER
	RET

// func taccumOctAVX64(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float64, rows, n int)
//
// Row-looping variant of axpyOctAVX64 for the Aᵀ·B accumulate kernel:
// applies the same eight in-order accumulation steps to `rows` consecutive
// dst rows of width n, with a separate 8-coefficient set per row read from
// the transposed staging block coef (row r uses coef[8r..8r+7]). The b rows
// are shared across all dst rows, so one call amortizes argument setup over
// the whole row range instead of paying it per row. Per-element arithmetic
// is identical to calling axpyOctAVX64 once per row.
TEXT ·taccumOctAVX64(SB), NOSPLIT, $0-96
	MOVQ  dst+0(FP), DI
	MOVQ  coef+8(FP), SI
	MOVQ  b0+16(FP), R8
	MOVQ  b1+24(FP), R9
	MOVQ  b2+32(FP), R10
	MOVQ  b3+40(FP), R11
	MOVQ  b4+48(FP), R12
	MOVQ  b5+56(FP), R13
	MOVQ  b6+64(FP), R14
	MOVQ  b7+72(FP), AX
	MOVQ  rows+80(FP), R15
	MOVQ  n+88(FP), CX
	TESTQ R15, R15
	JLE   done

rowloop:
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	VBROADCASTSD 32(SI), Y8
	VBROADCASTSD 40(SI), Y9
	VBROADCASTSD 48(SI), Y10
	VBROADCASTSD 56(SI), Y11
	XORQ         BX, BX

loop4:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9)(BX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R10)(BX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R11)(BX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R12)(BX*8), Y5
	VMULPD  Y8, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R13)(BX*8), Y5
	VMULPD  Y9, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R14)(BX*8), Y5
	VMULPD  Y10, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (AX)(BX*8), Y5
	VMULPD  Y11, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop4

tail:
	CMPQ   BX, CX
	JGE    nextrow
	VMOVSD (DI)(BX*8), X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R9)(BX*8), X5
	VMULSD X1, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R10)(BX*8), X5
	VMULSD X2, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R11)(BX*8), X5
	VMULSD X3, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R12)(BX*8), X5
	VMULSD X8, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R13)(BX*8), X5
	VMULSD X9, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R14)(BX*8), X5
	VMULSD X10, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (AX)(BX*8), X5
	VMULSD X11, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail

nextrow:
	LEAQ (DI)(CX*8), DI
	ADDQ $64, SI
	DECQ R15
	JNZ  rowloop

done:
	VZEROUPPER
	RET

// func taccumRank1AVX64(dst, coef, b *float64, rows, n int)
//
// Rank-1 accumulate dst[r][j] += coef[r]*b[j] over `rows` consecutive dst
// rows of width n — the single-step tail of the Aᵀ·B kernel, looping rows
// inside the call. Per-element arithmetic matches axpyAVX64 exactly.
TEXT ·taccumRank1AVX64(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  coef+8(FP), SI
	MOVQ  b+16(FP), R8
	MOVQ  rows+24(FP), R15
	MOVQ  n+32(FP), CX
	TESTQ R15, R15
	JLE   done

rowloop:
	VBROADCASTSD (SI), Y0
	XORQ         BX, BX

loop4:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop4

tail:
	CMPQ   BX, CX
	JGE    nextrow
	VMOVSD (DI)(BX*8), X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail

nextrow:
	LEAQ (DI)(CX*8), DI
	ADDQ $8, SI
	DECQ R15
	JNZ  rowloop

done:
	VZEROUPPER
	RET

// func taccumQuadAVX64(dst, coef, b0, b1, b2, b3 *float64, rows, n int)
//
// Four-step sibling of taccumOctAVX64: row r applies coefficients
// coef[4r..4r+3] to the shared b rows in argument order. Used for the
// p%8 >= 4 tier of the Aᵀ·B accumulate so mid-sized reductions sweep dst
// once instead of four rank-1 passes.
TEXT ·taccumQuadAVX64(SB), NOSPLIT, $0-64
	MOVQ  dst+0(FP), DI
	MOVQ  coef+8(FP), SI
	MOVQ  b0+16(FP), R8
	MOVQ  b1+24(FP), R9
	MOVQ  b2+32(FP), R10
	MOVQ  b3+40(FP), R11
	MOVQ  rows+48(FP), R15
	MOVQ  n+56(FP), CX
	TESTQ R15, R15
	JLE   done

rowloop:
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	XORQ         BX, BX

loop4:
	LEAQ    4(BX), DX
	CMPQ    DX, CX
	JGT     tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9)(BX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R10)(BX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R11)(BX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	MOVQ    DX, BX
	JMP     loop4

tail:
	CMPQ   BX, CX
	JGE    nextrow
	VMOVSD (DI)(BX*8), X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R9)(BX*8), X5
	VMULSD X1, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R10)(BX*8), X5
	VMULSD X2, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R11)(BX*8), X5
	VMULSD X3, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail

nextrow:
	LEAQ (DI)(CX*8), DI
	ADDQ $32, SI
	DECQ R15
	JNZ  rowloop

done:
	VZEROUPPER
	RET
