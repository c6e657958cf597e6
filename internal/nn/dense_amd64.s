#include "textflag.h"

// AVX2 bodies of the Dense kernels in dense.go. Each computes, in every
// lane, the operations its Go twin computes for one element: a VMULPD and
// then a VADDPD, each rounded on its own (no FMA, which rounds once), with
// the first and second operand the ones the Go compiler picks for that
// twin (MULSD/ADDSD keep the first operand's payload when both are NaN).
// In the Go syntax below the first operand of VMULPD/VADDPD a, b, c is b.
// A scalar tail finishes the last len%4 elements with the same sequence.
//
// The bodies trust their caller: every slice holds at least len(w) — for
// gradW4, len(wg) — elements, as the rows of one Dense do.

// AXPY adds one output row's share of w (Y4 / X4) at index AX:
// p = w * x, then o = p + o, as axpy1…axpy4 compile.
#define AXPY(x, o, p) \
	VMULPD  x, Y4, p \
	VADDPD  (o)(AX*8), p, p \
	VMOVUPD p, (o)(AX*8)

#define AXPY1(x, o, p) \
	VMULSD x, X4, p \
	VADDSD (o)(AX*8), p, p \
	VMOVSD p, (o)(AX*8)

// func axpy1AVX2(w []float64, x0 float64, o0 []float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y0
	MOVQ         o0_base+32(FP), DI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

loop:
	CMPQ    AX, DX
	JGE     tail
	VMOVUPD (SI)(AX*8), Y4
	AXPY(Y0, DI, Y5)
	ADDQ    $4, AX
	JMP     loop

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X4
	AXPY1(X0, DI, X5)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy2AVX2(w []float64, x0, x1 float64, o0, o1 []float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y0
	VBROADCASTSD x1+32(FP), Y1
	MOVQ         o0_base+40(FP), DI
	MOVQ         o1_base+64(FP), R8
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

loop:
	CMPQ    AX, DX
	JGE     tail
	VMOVUPD (SI)(AX*8), Y4
	AXPY(Y0, DI, Y5)
	AXPY(Y1, R8, Y6)
	ADDQ    $4, AX
	JMP     loop

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X4
	AXPY1(X0, DI, X5)
	AXPY1(X1, R8, X6)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy3AVX2(w []float64, x0, x1, x2 float64, o0, o1, o2 []float64)
TEXT ·axpy3AVX2(SB), NOSPLIT, $0-120
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y0
	VBROADCASTSD x1+32(FP), Y1
	VBROADCASTSD x2+40(FP), Y2
	MOVQ         o0_base+48(FP), DI
	MOVQ         o1_base+72(FP), R8
	MOVQ         o2_base+96(FP), R9
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

loop:
	CMPQ    AX, DX
	JGE     tail
	VMOVUPD (SI)(AX*8), Y4
	AXPY(Y0, DI, Y5)
	AXPY(Y1, R8, Y6)
	AXPY(Y2, R9, Y7)
	ADDQ    $4, AX
	JMP     loop

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X4
	AXPY1(X0, DI, X5)
	AXPY1(X1, R8, X6)
	AXPY1(X2, R9, X7)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy4AVX2(w []float64, x0, x1, x2, x3 float64, o0, o1, o2, o3 []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	VBROADCASTSD x0+24(FP), Y0
	VBROADCASTSD x1+32(FP), Y1
	VBROADCASTSD x2+40(FP), Y2
	VBROADCASTSD x3+48(FP), Y3
	MOVQ         o0_base+56(FP), DI
	MOVQ         o1_base+80(FP), R8
	MOVQ         o2_base+104(FP), R9
	MOVQ         o3_base+128(FP), R10
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

loop:
	CMPQ    AX, DX
	JGE     tail
	VMOVUPD (SI)(AX*8), Y4
	AXPY(Y0, DI, Y5)
	AXPY(Y1, R8, Y6)
	AXPY(Y2, R9, Y7)
	AXPY(Y3, R10, Y8)
	ADDQ    $4, AX
	JMP     loop

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X4
	AXPY1(X0, DI, X5)
	AXPY1(X1, R8, X6)
	AXPY1(X2, R9, X7)
	AXPY1(X3, R10, X8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func gradW4AVX2(wg, from []float64, add bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64)
//
// acc = +0 (from nil) or from; then p_r = g_r * x_r for r = 0…3, added as
// acc + p for row 0 and p + acc for rows 1–3, as gradW4 compiles; with
// add, acc = acc + wg. acc is stored to wg.
TEXT ·gradW4AVX2(SB), NOSPLIT, $0-184
	MOVQ         wg_base+0(FP), DI
	MOVQ         wg_len+8(FP), CX
	MOVQ         from_base+24(FP), BX
	MOVBLZX      add+48(FP), R12
	VBROADCASTSD x0+56(FP), Y0
	VBROADCASTSD x1+64(FP), Y1
	VBROADCASTSD x2+72(FP), Y2
	VBROADCASTSD x3+80(FP), Y3
	MOVQ         g0_base+88(FP), R8
	MOVQ         g1_base+112(FP), R9
	MOVQ         g2_base+136(FP), R10
	MOVQ         g3_base+160(FP), R11
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

loop:
	CMPQ    AX, DX
	JGE     tail
	VXORPD  Y8, Y8, Y8
	TESTQ   BX, BX
	JEQ     started
	VMOVUPD (BX)(AX*8), Y8

started:
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y8, Y8
	VMOVUPD (R9)(AX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y8, Y5, Y8
	VMOVUPD (R10)(AX*8), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y8, Y6, Y8
	VMOVUPD (R11)(AX*8), Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y8, Y7, Y8
	TESTQ   R12, R12
	JEQ     store
	VMOVUPD (DI)(AX*8), Y9
	VADDPD  Y9, Y8, Y8

store:
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

tail:
	CMPQ   AX, CX
	JGE    done
	VXORPD X8, X8, X8
	TESTQ  BX, BX
	JEQ    tstarted
	VMOVSD (BX)(AX*8), X8

tstarted:
	VMOVSD (R8)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD X4, X8, X8
	VMOVSD (R9)(AX*8), X5
	VMULSD X1, X5, X5
	VADDSD X8, X5, X8
	VMOVSD (R10)(AX*8), X6
	VMULSD X2, X6, X6
	VADDSD X8, X6, X8
	VMOVSD (R11)(AX*8), X7
	VMULSD X3, X7, X7
	VADDSD X8, X7, X8
	TESTQ  R12, R12
	JEQ    tstore
	VMOVSD (DI)(AX*8), X9
	VADDSD X9, X8, X8

tstore:
	VMOVSD X8, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func backward4AVX2(w, wg, from []float64, add bool, x0, x1, x2, x3 float64, g0, g1, g2, g3 []float64) (s0, s1, s2, s3 float64)
//
// ∂W as backward4 compiles it, lanes j: acc = +0 (from nil) or from;
// p_r = x_r * g_r, added as acc + p for row 0 and p + acc for rows 1–3;
// with add, acc = acc + wg; acc is stored to wg.
// ∂x, lanes r: Y14 holds s0…s3. The four rows loaded for ∂W are
// transposed in registers into (g0[j], g1[j], g2[j], g3[j]) for each j,
// and for j ascending s += g[j] * w[j] — one VADDPD per j, so each row's
// sum keeps its order.
TEXT ·backward4AVX2(SB), NOSPLIT, $0-240
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	MOVQ         wg_base+24(FP), DI
	MOVQ         from_base+48(FP), BX
	MOVBLZX      add+72(FP), R12
	VBROADCASTSD x0+80(FP), Y0
	VBROADCASTSD x1+88(FP), Y1
	VBROADCASTSD x2+96(FP), Y2
	VBROADCASTSD x3+104(FP), Y3
	MOVQ         g0_base+112(FP), R8
	MOVQ         g1_base+136(FP), R9
	MOVQ         g2_base+160(FP), R10
	MOVQ         g3_base+184(FP), R11
	VXORPD       Y14, Y14, Y14
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX

loop:
	CMPQ    AX, DX
	JGE     tail
	VXORPD  Y8, Y8, Y8
	TESTQ   BX, BX
	JEQ     started
	VMOVUPD (BX)(AX*8), Y8

started:
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD (R9)(AX*8), Y5
	VMOVUPD (R10)(AX*8), Y6
	VMOVUPD (R11)(AX*8), Y7
	VMULPD  Y4, Y0, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y5, Y1, Y9
	VADDPD  Y8, Y9, Y8
	VMULPD  Y6, Y2, Y9
	VADDPD  Y8, Y9, Y8
	VMULPD  Y7, Y3, Y9
	VADDPD  Y8, Y9, Y8
	TESTQ   R12, R12
	JEQ     store
	VMOVUPD (DI)(AX*8), Y9
	VADDPD  Y9, Y8, Y8

store:
	VMOVUPD Y8, (DI)(AX*8)

	// Y4…Y7 = (g0, g1, g2, g3) at j, j+1, j+2, j+3.
	VUNPCKLPD  Y5, Y4, Y10
	VUNPCKHPD  Y5, Y4, Y11
	VUNPCKLPD  Y7, Y6, Y12
	VUNPCKHPD  Y7, Y6, Y13
	VPERM2F128 $0x20, Y12, Y10, Y4
	VPERM2F128 $0x20, Y13, Y11, Y5
	VPERM2F128 $0x31, Y12, Y10, Y6
	VPERM2F128 $0x31, Y13, Y11, Y7

	VBROADCASTSD (SI)(AX*8), Y9
	VMULPD       Y9, Y4, Y9
	VADDPD       Y9, Y14, Y14
	VBROADCASTSD 8(SI)(AX*8), Y10
	VMULPD       Y10, Y5, Y10
	VADDPD       Y10, Y14, Y14
	VBROADCASTSD 16(SI)(AX*8), Y11
	VMULPD       Y11, Y6, Y11
	VADDPD       Y11, Y14, Y14
	VBROADCASTSD 24(SI)(AX*8), Y12
	VMULPD       Y12, Y7, Y12
	VADDPD       Y12, Y14, Y14
	ADDQ         $4, AX
	JMP          loop

tail:
	CMPQ   AX, CX
	JGE    done
	VXORPD X8, X8, X8
	TESTQ  BX, BX
	JEQ    tstarted
	VMOVSD (BX)(AX*8), X8

tstarted:
	VMOVSD (R8)(AX*8), X4
	VMOVSD (R9)(AX*8), X5
	VMOVSD (R10)(AX*8), X6
	VMOVSD (R11)(AX*8), X7
	VMULSD X4, X0, X9
	VADDSD X9, X8, X8
	VMULSD X5, X1, X9
	VADDSD X8, X9, X8
	VMULSD X6, X2, X9
	VADDSD X8, X9, X8
	VMULSD X7, X3, X9
	VADDSD X8, X9, X8
	TESTQ  R12, R12
	JEQ    tstore
	VMOVSD (DI)(AX*8), X9
	VADDSD X9, X8, X8

tstore:
	VMOVSD X8, (DI)(AX*8)

	VUNPCKLPD    X5, X4, X4
	VUNPCKLPD    X7, X6, X6
	VINSERTF128  $1, X6, Y4, Y4
	VBROADCASTSD (SI)(AX*8), Y9
	VMULPD       Y9, Y4, Y9
	VADDPD       Y9, Y14, Y14
	INCQ         AX
	JMP          tail

done:
	VMOVSD       X14, s0+208(FP)
	VMOVHPD      X14, s1+216(FP)
	VEXTRACTF128 $1, Y14, X14
	VMOVSD       X14, s2+224(FP)
	VMOVHPD      X14, s3+232(FP)
	VZEROUPPER
	RET
