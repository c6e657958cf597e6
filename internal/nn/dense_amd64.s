#include "textflag.h"

// AVX2 bodies of the Dense kernels in dense.go. Each computes, in every
// lane, the operations its Go twin computes for one element: a VMULPD and
// then a VADDPD, each rounded on its own (no FMA, which rounds once), with
// the first and second operand the ones the Go compiler picks for that
// twin (MULSD/ADDSD keep the first operand's payload when both are NaN).
// In the Go syntax below the first operand of VMULPD/VADDPD a, b, c is b.
// A scalar tail finishes the last len%4 elements with the same sequence.
//
// The bodies trust their caller: every slice holds at least len(w)
// elements — for the four-row bodies, every row they address holds
// len(g)/4 — as the rows of one Dense do.

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

// The four-row bodies (backwardRows4 and gradWRows4 in dense.go) take
// four rows of W, k = 0…3, each at its own base plus k times its stride in
// bytes: w at SI (stride R8), the ∂W they store at DI (R9), the partial
// sums they start from at BX (R10), and the block's four rows of ∂y at R13
// (R11, one row). Row 3 is addressed through DX = base + 2·stride. x[k][r]
// sits at 32k + 8r(R12). Each iteration takes four consecutive j:
//
//   - Y0…Y3 = ∂y rows 0…3 at j, loaded once for the four rows of W;
//   - Y6…Y9 = ∂W of rows 0…3, lanes j: acc = from or +0, then for r = 0…3
//     the product of x[k][r] and ∂y row r, added as acc + p for r = 0 and
//     p + acc after, as backward4 and gradW4 compile; with add, acc + ∂W;
//     stored;
//   - with abs, |acc| of the four rows transposed 4×4 so that lane k holds
//     row k, and added into Y14 for j, j+1, j+2, j+3 in order: Y14's lane k
//     is row k's chain, the first operand of each add, as absChains4 has it;
//   - backwardRows4AVX2 only: ∂y transposed 4×4 in registers, lane r
//     holding batch row r (Y2…Y5 for j…j+3), and for each row k and each
//     j in order, s_k = s_k + ∂y·w[k][j]: one VMULPD and one VADDPD per j,
//     no shuffle, four independent chains Y10…Y13.
//
// The tail takes the last len(g)/4 mod 4 values of j one at a time with the
// same operations.

// LOAD4 loads row k's group at off of the rows at base b, stride s into y_k.
#define LOAD4(off, b, s, y0, y1, y2, y3) \
	LEAQ    (b)(s*2), DX \
	VMOVUPD off(b), y0 \
	VMOVUPD off(b)(s*1), y1 \
	VMOVUPD off(b)(s*2), y2 \
	VMOVUPD off(DX)(s*1), y3

// ADD4 adds the rows at b, stride s into Y6…Y9: acc + ∂W.
#define ADD4(b, s) \
	LEAQ   (b)(s*2), DX \
	VADDPD (b), Y6, Y6 \
	VADDPD (b)(s*1), Y7, Y7 \
	VADDPD (b)(s*2), Y8, Y8 \
	VADDPD (DX)(s*1), Y9, Y9

// STORE4 stores Y6…Y9 to the rows at b, stride s.
#define STORE4(b, s) \
	LEAQ    (b)(s*2), DX \
	VMOVUPD Y6, (b) \
	VMOVUPD Y7, (b)(s*1) \
	VMOVUPD Y8, (b)(s*2) \
	VMOVUPD Y9, (DX)(s*1)

// XG0 and XG add batch row r's products into the four rows' sums, x the
// first operand of the multiply (backward4): acc + p for r = 0 (XG0), p +
// acc after. o0…o3 are x[k][r]'s offsets, g is ∂y row r.
#define XG0(o0, o1, o2, o3, g) \
	VBROADCASTSD o0(R12), Y4 \
	VMULPD       g, Y4, Y4 \
	VADDPD       Y4, Y6, Y6 \
	VBROADCASTSD o1(R12), Y5 \
	VMULPD       g, Y5, Y5 \
	VADDPD       Y5, Y7, Y7 \
	VBROADCASTSD o2(R12), Y4 \
	VMULPD       g, Y4, Y4 \
	VADDPD       Y4, Y8, Y8 \
	VBROADCASTSD o3(R12), Y5 \
	VMULPD       g, Y5, Y5 \
	VADDPD       Y5, Y9, Y9

#define XG(o0, o1, o2, o3, g) \
	VBROADCASTSD o0(R12), Y4 \
	VMULPD       g, Y4, Y4 \
	VADDPD       Y6, Y4, Y6 \
	VBROADCASTSD o1(R12), Y5 \
	VMULPD       g, Y5, Y5 \
	VADDPD       Y7, Y5, Y7 \
	VBROADCASTSD o2(R12), Y4 \
	VMULPD       g, Y4, Y4 \
	VADDPD       Y8, Y4, Y8 \
	VBROADCASTSD o3(R12), Y5 \
	VMULPD       g, Y5, Y5 \
	VADDPD       Y9, Y5, Y9

// GX0 and GX are XG0 and XG with ∂y the first operand of the multiply
// (gradW4).
#define GX0(o0, o1, o2, o3, g) \
	VBROADCASTSD o0(R12), Y4 \
	VMULPD       Y4, g, Y4 \
	VADDPD       Y4, Y6, Y6 \
	VBROADCASTSD o1(R12), Y5 \
	VMULPD       Y5, g, Y5 \
	VADDPD       Y5, Y7, Y7 \
	VBROADCASTSD o2(R12), Y4 \
	VMULPD       Y4, g, Y4 \
	VADDPD       Y4, Y8, Y8 \
	VBROADCASTSD o3(R12), Y5 \
	VMULPD       Y5, g, Y5 \
	VADDPD       Y5, Y9, Y9

#define GX(o0, o1, o2, o3, g) \
	VBROADCASTSD o0(R12), Y4 \
	VMULPD       Y4, g, Y4 \
	VADDPD       Y6, Y4, Y6 \
	VBROADCASTSD o1(R12), Y5 \
	VMULPD       Y5, g, Y5 \
	VADDPD       Y7, Y5, Y7 \
	VBROADCASTSD o2(R12), Y4 \
	VMULPD       Y4, g, Y4 \
	VADDPD       Y8, Y4, Y8 \
	VBROADCASTSD o3(R12), Y5 \
	VMULPD       Y5, g, Y5 \
	VADDPD       Y9, Y5, Y9

// ABS4 adds |Y6…Y9| into the chains Y14, lane k row k, for j…j+3 in
// order; it leaves Y4…Y9 clobbered.
#define ABS4 \
	VANDPD     Y15, Y6, Y6 \
	VANDPD     Y15, Y7, Y7 \
	VANDPD     Y15, Y8, Y8 \
	VANDPD     Y15, Y9, Y9 \
	VUNPCKLPD  Y7, Y6, Y4 \
	VUNPCKHPD  Y7, Y6, Y5 \
	VUNPCKLPD  Y9, Y8, Y6 \
	VUNPCKHPD  Y9, Y8, Y7 \
	VPERM2F128 $0x20, Y6, Y4, Y8 \
	VPERM2F128 $0x20, Y7, Y5, Y9 \
	VPERM2F128 $0x31, Y6, Y4, Y4 \
	VPERM2F128 $0x31, Y7, Y5, Y5 \
	VADDPD     Y8, Y14, Y14 \
	VADDPD     Y9, Y14, Y14 \
	VADDPD     Y4, Y14, Y14 \
	VADDPD     Y5, Y14, Y14

// DX4 adds w[k][j+m] times gt (∂y at j+m, lane r batch row r) into s_k,
// Y10…Y13, ∂y the first operand of the multiply and s of the add, as
// backward4 compiles; off is 8m. DX must hold SI + 2·R8.
#define DX4(off, gt) \
	VBROADCASTSD off(SI), Y0 \
	VMULPD       Y0, gt, Y0 \
	VADDPD       Y0, Y10, Y10 \
	VBROADCASTSD off(SI)(R8*1), Y1 \
	VMULPD       Y1, gt, Y1 \
	VADDPD       Y1, Y11, Y11 \
	VBROADCASTSD off(SI)(R8*2), Y6 \
	VMULPD       Y6, gt, Y6 \
	VADDPD       Y6, Y12, Y12 \
	VBROADCASTSD off(DX)(R8*1), Y7 \
	VMULPD       Y7, gt, Y7 \
	VADDPD       Y7, Y13, Y13

// The scalar forms for the tail: X0…X3 hold ∂y at j, X6…X9 the sums.
#define LOAD4S(b, s, y0, y1, y2, y3) \
	LEAQ   (b)(s*2), DX \
	VMOVSD (b), y0 \
	VMOVSD (b)(s*1), y1 \
	VMOVSD (b)(s*2), y2 \
	VMOVSD (DX)(s*1), y3

#define ADD4S(b, s) \
	LEAQ   (b)(s*2), DX \
	VMOVSD (b), X4 \
	VADDSD X4, X6, X6 \
	VMOVSD (b)(s*1), X5 \
	VADDSD X5, X7, X7 \
	VMOVSD (b)(s*2), X4 \
	VADDSD X4, X8, X8 \
	VMOVSD (DX)(s*1), X5 \
	VADDSD X5, X9, X9

#define STORE4S(b, s) \
	LEAQ   (b)(s*2), DX \
	VMOVSD X6, (b) \
	VMOVSD X7, (b)(s*1) \
	VMOVSD X8, (b)(s*2) \
	VMOVSD X9, (DX)(s*1)

#define XG0S(o0, o1, o2, o3, g) \
	VMOVSD o0(R12), X4 \
	VMULSD g, X4, X4 \
	VADDSD X4, X6, X6 \
	VMOVSD o1(R12), X5 \
	VMULSD g, X5, X5 \
	VADDSD X5, X7, X7 \
	VMOVSD o2(R12), X4 \
	VMULSD g, X4, X4 \
	VADDSD X4, X8, X8 \
	VMOVSD o3(R12), X5 \
	VMULSD g, X5, X5 \
	VADDSD X5, X9, X9

#define XGS(o0, o1, o2, o3, g) \
	VMOVSD o0(R12), X4 \
	VMULSD g, X4, X4 \
	VADDSD X6, X4, X6 \
	VMOVSD o1(R12), X5 \
	VMULSD g, X5, X5 \
	VADDSD X7, X5, X7 \
	VMOVSD o2(R12), X4 \
	VMULSD g, X4, X4 \
	VADDSD X8, X4, X8 \
	VMOVSD o3(R12), X5 \
	VMULSD g, X5, X5 \
	VADDSD X9, X5, X9

#define GX0S(o0, o1, o2, o3, g) \
	VMOVSD o0(R12), X4 \
	VMULSD X4, g, X4 \
	VADDSD X4, X6, X6 \
	VMOVSD o1(R12), X5 \
	VMULSD X5, g, X5 \
	VADDSD X5, X7, X7 \
	VMOVSD o2(R12), X4 \
	VMULSD X4, g, X4 \
	VADDSD X4, X8, X8 \
	VMOVSD o3(R12), X5 \
	VMULSD X5, g, X5 \
	VADDSD X5, X9, X9

#define GXS(o0, o1, o2, o3, g) \
	VMOVSD o0(R12), X4 \
	VMULSD X4, g, X4 \
	VADDSD X6, X4, X6 \
	VMOVSD o1(R12), X5 \
	VMULSD X5, g, X5 \
	VADDSD X7, X5, X7 \
	VMOVSD o2(R12), X4 \
	VMULSD X4, g, X4 \
	VADDSD X8, X4, X8 \
	VMOVSD o3(R12), X5 \
	VMULSD X5, g, X5 \
	VADDSD X9, X5, X9

// ABS4S adds |X6…X9| into the chains, lane k row k.
#define ABS4S \
	VUNPCKLPD   X7, X6, X4 \
	VUNPCKLPD   X9, X8, X5 \
	VINSERTF128 $1, X5, Y4, Y4 \
	VANDPD      Y15, Y4, Y4 \
	VADDPD      Y4, Y14, Y14

// DX4S adds w[k][j] times ∂y at j (Y4, lane r batch row r) into s_k.
#define DX4S \
	LEAQ         (SI)(R8*2), DX \
	VBROADCASTSD (SI), Y0 \
	VMULPD       Y0, Y4, Y0 \
	VADDPD       Y0, Y10, Y10 \
	VBROADCASTSD (SI)(R8*1), Y1 \
	VMULPD       Y1, Y4, Y1 \
	VADDPD       Y1, Y11, Y11 \
	VBROADCASTSD (SI)(R8*2), Y6 \
	VMULPD       Y6, Y4, Y6 \
	VADDPD       Y6, Y12, Y12 \
	VBROADCASTSD (DX)(R8*1), Y7 \
	VMULPD       Y7, Y4, Y7 \
	VADDPD       Y7, Y13, Y13

// SETUP loads the sign mask into Y15 and the chains into Y14 (zero without
// abs, at R14 = abs).
#define SETUP \
	MOVQ         $0x7fffffffffffffff, DX \
	VMOVQ        DX, X15 \
	VPBROADCASTQ X15, Y15 \
	VXORPD       Y14, Y14, Y14 \
	TESTQ        R14, R14 \
	JEQ          nochains \
	VMOVUPD      (R14), Y14 \
nochains:

// func backwardRows4AVX2(w, dst, from []float64, ws, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64, dx *[4][4]float64)
TEXT ·backwardRows4AVX2(SB), NOSPLIT, $0-152
	MOVQ    w_base+0(FP), SI
	MOVQ    dst_base+24(FP), DI
	MOVQ    from_base+48(FP), BX
	MOVQ    ws+72(FP), R8
	SHLQ    $3, R8
	MOVQ    ds+80(FP), R9
	SHLQ    $3, R9
	MOVQ    fs+88(FP), R10
	SHLQ    $3, R10
	MOVBLZX add+96(FP), AX
	MOVQ    x+104(FP), R12
	MOVQ    g_base+112(FP), R13
	MOVQ    g_len+120(FP), R11
	MOVQ    abs+136(FP), R14
	MOVQ    R11, CX
	SHLQ    $1, R11 // one row of ∂y in bytes: len(g)/4 · 8
	SHRQ    $4, CX  // groups of four j: len(g)/16
	SETUP
	VXORPD  Y10, Y10, Y10
	VXORPD  Y11, Y11, Y11
	VXORPD  Y12, Y12, Y12
	VXORPD  Y13, Y13, Y13
	TESTQ   CX, CX
	JEQ     tail

loop:
	LOAD4(0, R13, R11, Y0, Y1, Y2, Y3)
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	CMPQ    from_base+48(FP), $0
	JEQ     started
	LOAD4(0, BX, R10, Y6, Y7, Y8, Y9)

started:
	XG0(0, 32, 64, 96, Y0)
	XG(8, 40, 72, 104, Y1)
	XG(16, 48, 80, 112, Y2)
	XG(24, 56, 88, 120, Y3)
	TESTQ   AX, AX
	JEQ     store
	ADD4(DI, R9)

store:
	STORE4(DI, R9)
	TESTQ   R14, R14
	JEQ     dx
	ABS4

dx:
	// ∂y transposed: Y2…Y5 = (g0, g1, g2, g3) at j, j+1, j+2, j+3.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y0
	VUNPCKHPD  Y3, Y2, Y1
	VPERM2F128 $0x20, Y0, Y4, Y2
	VPERM2F128 $0x20, Y1, Y5, Y3
	VPERM2F128 $0x31, Y0, Y4, Y4
	VPERM2F128 $0x31, Y1, Y5, Y5
	LEAQ       (SI)(R8*2), DX
	DX4(0, Y2)
	DX4(8, Y3)
	DX4(16, Y4)
	DX4(24, Y5)
	ADDQ       $32, SI
	ADDQ       $32, DI
	ADDQ       $32, BX
	ADDQ       $32, R13
	DECQ       CX
	JNE        loop

tail:
	MOVQ g_len+120(FP), CX
	SHRQ $2, CX
	ANDQ $3, CX
	JEQ  done

tloop:
	LOAD4S(R13, R11, X0, X1, X2, X3)
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	CMPQ   from_base+48(FP), $0
	JEQ    tstarted
	LOAD4S(BX, R10, X6, X7, X8, X9)

tstarted:
	XG0S(0, 32, 64, 96, X0)
	XGS(8, 40, 72, 104, X1)
	XGS(16, 48, 80, 112, X2)
	XGS(24, 56, 88, 120, X3)
	TESTQ  AX, AX
	JEQ    tstore
	ADD4S(DI, R9)

tstore:
	STORE4S(DI, R9)
	TESTQ  R14, R14
	JEQ    tdx
	ABS4S

tdx:
	VUNPCKLPD   X1, X0, X4
	VUNPCKLPD   X3, X2, X5
	VINSERTF128 $1, X5, Y4, Y4
	DX4S
	ADDQ        $8, SI
	ADDQ        $8, DI
	ADDQ        $8, BX
	ADDQ        $8, R13
	DECQ        CX
	JNE         tloop

done:
	MOVQ    dx+144(FP), DX
	VMOVUPD Y10, (DX)
	VMOVUPD Y11, 32(DX)
	VMOVUPD Y12, 64(DX)
	VMOVUPD Y13, 96(DX)
	TESTQ   R14, R14
	JEQ     ret
	VMOVUPD Y14, (R14)

ret:
	VZEROUPPER
	RET

// func gradWRows4AVX2(dst, from []float64, ds, fs int, add bool, x *[4][4]float64, g []float64, abs *[4]float64)
//
// backwardRows4AVX2 without w and ∂x, ∂y the first operand of each
// multiply (gradW4).
TEXT ·gradWRows4AVX2(SB), NOSPLIT, $0-112
	MOVQ    dst_base+0(FP), DI
	MOVQ    from_base+24(FP), BX
	MOVQ    ds+48(FP), R9
	SHLQ    $3, R9
	MOVQ    fs+56(FP), R10
	SHLQ    $3, R10
	MOVBLZX add+64(FP), AX
	MOVQ    x+72(FP), R12
	MOVQ    g_base+80(FP), R13
	MOVQ    g_len+88(FP), R11
	MOVQ    abs+104(FP), R14
	MOVQ    R11, CX
	SHLQ    $1, R11
	SHRQ    $4, CX
	SETUP
	TESTQ   CX, CX
	JEQ     tail

loop:
	LOAD4(0, R13, R11, Y0, Y1, Y2, Y3)
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	CMPQ    from_base+24(FP), $0
	JEQ     started
	LOAD4(0, BX, R10, Y6, Y7, Y8, Y9)

started:
	GX0(0, 32, 64, 96, Y0)
	GX(8, 40, 72, 104, Y1)
	GX(16, 48, 80, 112, Y2)
	GX(24, 56, 88, 120, Y3)
	TESTQ   AX, AX
	JEQ     store
	ADD4(DI, R9)

store:
	STORE4(DI, R9)
	TESTQ   R14, R14
	JEQ     next
	ABS4

next:
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, R13
	DECQ CX
	JNE  loop

tail:
	MOVQ g_len+88(FP), CX
	SHRQ $2, CX
	ANDQ $3, CX
	JEQ  done

tloop:
	LOAD4S(R13, R11, X0, X1, X2, X3)
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	VXORPD X8, X8, X8
	VXORPD X9, X9, X9
	CMPQ   from_base+24(FP), $0
	JEQ    tstarted
	LOAD4S(BX, R10, X6, X7, X8, X9)

tstarted:
	GX0S(0, 32, 64, 96, X0)
	GXS(8, 40, 72, 104, X1)
	GXS(16, 48, 80, 112, X2)
	GXS(24, 56, 88, 120, X3)
	TESTQ  AX, AX
	JEQ    tstore
	ADD4S(DI, R9)

tstore:
	STORE4S(DI, R9)
	TESTQ  R14, R14
	JEQ    tnext
	ABS4S

tnext:
	ADDQ $8, DI
	ADDQ $8, BX
	ADDQ $8, R13
	DECQ CX
	JNE  tloop

done:
	TESTQ   R14, R14
	JEQ     ret
	VMOVUPD Y14, (R14)

ret:
	VZEROUPPER
	RET
