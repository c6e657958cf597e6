#include "textflag.h"

// AVX2 bodies of gammaLoop (desc.go). gammaGroupsAVX2 runs a sub-block
// of one block, one group of four elements to an iteration: the blocks
// gammaSum leaves to gammaKernel, the last len%(4·sumBlock) elements of a
// sweep. gammaQuadAVX2, further down, runs four consecutive blocks side
// by side, one group of each to an iteration, each block on its own
// chains laid out as the one-block body's. In both, each sum keeps the Go
// loop's order:
//
//   - Σ|x| is one scalar chain in X0: the group's |x| go to the frame and
//     four VADDSD take them back, lanes 0 to 3.
//   - The two mantissa chains are the lanes of X1, [takes the next normal,
//     the other]. gammaLanes packs the group's normal mantissas to the
//     front (a zero's mantissa bits OR 1.0 are 1.0, which multiplies
//     exactly), lanes 0-1 multiply in, then lanes 2-3, and the chains swap
//     after an odd count of normals: normal j of the sub-block meets the
//     chain the Go loop's p0, p1 = p1, p0*m gives it, in the same order.
//   - Σe over the normals is an integer sum of the raw exponents (a zero's
//     is 0), less 1023 per normal at the end.
//   - With g, v = r + g is one VADDPD, stored back over the group's four
//     slots once the group is known to be clean.
//
// A group with a subnormal, ±Inf or NaN lane ends the run before it is
// stored or summed: those lanes need math.Log, so gammaKernel hands that
// group to the Go loop and calls back in. No lane the body sums is NaN,
// so no operand order picks a payload; there is no FMA.

// CLASSIFY takes the group x in Y4: |x| to Y5, the normal lanes' mask to
// Y6, and ends the run unless every lane is normal or zero. Clobbers Y7
// and BX.
#define CLASSIFY \
	VANDPD    Y15, Y4, Y5 \
	VCMPPD    $0x11, Y11, Y5, Y6 \
	VCMPPD    $0x12, Y12, Y5, Y7 \
	VANDNPD   Y7, Y6, Y6 \
	VPCMPEQQ  Y10, Y5, Y7 \
	VPOR      Y6, Y7, Y7 \
	VMOVMSKPD Y7, BX \
	CMPQ      BX, $15 \
	JNE       done

// ACCUMULATE adds the clean group CLASSIFY left in Y4, Y5 and Y6 to the
// sums. R9 is the table; clobbers Y7, Y8 and BX.
#define ACCUMULATE \
	VMOVUPD      Y5, lanes-32(SP) \
	VPSUBQ       Y6, Y3, Y3 \
	VPSRLQ       $52, Y5, Y7 \
	VPADDQ       Y7, Y2, Y2 \
	VANDPD       Y14, Y4, Y7 \
	VORPD        Y13, Y7, Y7 \
	VMOVMSKPD    Y6, BX \
	SHLQ         $6, BX \
	ADDQ         R9, BX \
	VMOVDQU      (BX), Y8 \
	VPERMPS      Y7, Y8, Y7 \
	VMULPD       X7, X1, X1 \
	VEXTRACTF128 $1, Y7, X7 \
	VMULPD       X7, X1, X1 \
	VPERMILPD    32(BX), X1, X1 \
	VADDSD       lanes-32(SP), X0, X0 \
	VADDSD       lanes-24(SP), X0, X0 \
	VADDSD       lanes-16(SP), X0, X0 \
	VADDSD       lanes-8(SP), X0, X0

// func gammaGroupsAVX2(sub, g []float64, s gammaState) (out gammaState, k int)
TEXT ·gammaGroupsAVX2(SB), NOSPLIT, $32-152
	MOVQ         sub_base+0(FP), SI
	MOVQ         sub_len+8(FP), CX
	MOVQ         g_base+24(FP), DI
	MOVQ         g_len+32(FP), DX
	VMOVSD       s_abs+48(FP), X0
	VMOVSD       s_p0+56(FP), X1
	VMOVHPD      s_p1+64(FP), X1, X1
	VPXOR        Y2, Y2, Y2
	VPXOR        Y3, Y3, Y3
	VPXOR        Y10, Y10, Y10
	MOVQ         $0x0010000000000000, BX
	VMOVQ        BX, X11
	VPBROADCASTQ X11, Y11
	MOVQ         $0x7fefffffffffffff, BX
	VMOVQ        BX, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $0x3ff0000000000000, BX
	VMOVQ        BX, X13
	VPBROADCASTQ X13, Y13
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $12, Y15, Y14
	VPSRLQ       $1, Y15, Y15
	LEAQ         ·gammaLanes(SB), R9
	ANDQ         $-4, CX
	XORQ         AX, AX
	TESTQ        DX, DX
	JNZ          addloop

loop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y4
	CLASSIFY
	ACCUMULATE
	ADDQ    $4, AX
	JMP     loop

addloop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	CLASSIFY
	VMOVUPD Y4, (SI)(AX*8)
	ACCUMULATE
	ADDQ    $4, AX
	JMP     addloop

done:
	VEXTRACTI128 $1, Y2, X7
	VPADDQ       X7, X2, X2
	VPSHUFD      $0x4e, X2, X7
	VPADDQ       X7, X2, X2
	VMOVQ        X2, R10
	VEXTRACTI128 $1, Y3, X7
	VPADDQ       X7, X3, X3
	VPSHUFD      $0x4e, X3, X7
	VPADDQ       X7, X3, X3
	VMOVQ        X3, R11
	IMUL3Q       $1023, R11, BX
	SUBQ         BX, R10
	ADDQ         s_exp+72(FP), R10
	ADDQ         s_n+80(FP), R11
	MOVQ         s_logs+88(FP), BX
	VMOVSD       X0, out_abs+96(FP)
	VMOVSD       X1, out_p0+104(FP)
	VMOVHPD      X1, out_p1+112(FP)
	MOVQ         R10, out_exp+120(FP)
	MOVQ         R11, out_n+128(FP)
	MOVQ         BX, out_logs+136(FP)
	MOVQ         AX, k+144(FP)
	VZEROUPPER
	RET

// The four-block body, gammaQuadAVX2, runs the same group work on four
// consecutive sumBlocks side by side, one group of each block to an
// iteration, in block order. Every block keeps its own chains — Σ|x| in
// X0-X3, the mantissa pair in X4-X7, the exponent sums in Y8-Y11, the
// normal count in R10-R13 — so each block's sums run in its own element
// order, as the one-block body runs them; only the four blocks' chains
// overlap. The constants are memory operands, which leaves Y12-Y15 for
// the group in flight.
//
// A group of four normals, a gradient's usual group, takes the short
// path: the mantissas multiply into the chains in place (an even count:
// no packing, no swap). Any other group takes the long path: the zero
// test, then gammaLanes as in the one-block body. Both classify on the
// bits of |x| + 2^52, the exponent moved up one: a normal's is at least
// 2^53, a zero's and a subnormal's below, and an Inf's or NaN's carries
// into the sign, negative. The exponents go to the sums as e + 1, normal
// lanes only, so Σe is the sum less 1024 per normal. A group with a
// subnormal, ±Inf or NaN lane ends the run at that block: the blocks
// before it have run the group, it and the blocks after have not.

DATA gammaAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA gammaAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA gammaAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA gammaAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL gammaAbs<>(SB), RODATA|NOPTR, $32

DATA gammaExpOne<>+0(SB)/8, $0x0010000000000000
DATA gammaExpOne<>+8(SB)/8, $0x0010000000000000
DATA gammaExpOne<>+16(SB)/8, $0x0010000000000000
DATA gammaExpOne<>+24(SB)/8, $0x0010000000000000
GLOBL gammaExpOne<>(SB), RODATA|NOPTR, $32

DATA gammaBelowNormal<>+0(SB)/8, $0x001fffffffffffff
DATA gammaBelowNormal<>+8(SB)/8, $0x001fffffffffffff
DATA gammaBelowNormal<>+16(SB)/8, $0x001fffffffffffff
DATA gammaBelowNormal<>+24(SB)/8, $0x001fffffffffffff
GLOBL gammaBelowNormal<>(SB), RODATA|NOPTR, $32

DATA gammaMant<>+0(SB)/8, $0x000fffffffffffff
DATA gammaMant<>+8(SB)/8, $0x000fffffffffffff
DATA gammaMant<>+16(SB)/8, $0x000fffffffffffff
DATA gammaMant<>+24(SB)/8, $0x000fffffffffffff
GLOBL gammaMant<>(SB), RODATA|NOPTR, $32

DATA gammaOne<>+0(SB)/8, $0x3ff0000000000000
DATA gammaOne<>+8(SB)/8, $0x3ff0000000000000
DATA gammaOne<>+16(SB)/8, $0x3ff0000000000000
DATA gammaOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL gammaOne<>(SB), RODATA|NOPTR, $32

// QCLASSIFY takes the group x in Y12: |x| to Y13, |x| + 2^52 to Y14, the
// normal lanes' mask to Y15 and to BX, and goes to long unless all four
// lanes are normal.
#define QCLASSIFY(long) \
	VANDPD    gammaAbs<>(SB), Y12, Y13 \
	VPADDQ    gammaExpOne<>(SB), Y13, Y14 \
	VPCMPGTQ  gammaBelowNormal<>(SB), Y14, Y15 \
	VMOVMSKPD Y15, BX \
	CMPQ      BX, $15 \
	JNE       long

// QSUMS adds the group's |x| (Y13, through the frame at slot) to the
// Σ|x| chain A, in lane order, and its e + 1 (Y14) to the exponent sums
// E. Clobbers Y14.
#define QSUMS(slot, A, E) \
	VMOVUPD Y13, slot(SP) \
	VPSRLQ  $52, Y14, Y14 \
	VPADDQ  Y14, E, E \
	VADDSD  slot+0(SP), A, A \
	VADDSD  slot+8(SP), A, A \
	VADDSD  slot+16(SP), A, A \
	VADDSD  slot+24(SP), A, A

// QMANTISSAS puts the mantissas of the group x in Y12 to Y13, a zero
// lane's as 1.0.
#define QMANTISSAS \
	VANDPD gammaMant<>(SB), Y12, Y13 \
	VORPD  gammaOne<>(SB), Y13, Y13

// QSHORT adds a group of four normals to one block's chains: Σ|x| A,
// mantissas P, exponents E, normals N.
#define QSHORT(slot, A, P, E, N) \
	QSUMS(slot, A, E) \
	QMANTISSAS \
	VMULPD       X13, P, P \
	VEXTRACTF128 $1, Y13, X13 \
	VMULPD       X13, P, P \
	ADDQ         $4, N

// QCLEAN ends the run at out unless every lane of a group that is not
// four normals is normal or zero (|x| + 2^52 is 2^52). Clobbers Y13 and
// R8.
#define QCLEAN(out) \
	VPCMPEQQ  gammaExpOne<>(SB), Y14, Y13 \
	VPOR      Y15, Y13, Y13 \
	VMOVMSKPD Y13, R8 \
	CMPQ      R8, $15 \
	JNE       out

// QLONG adds a clean group that is not four normals to the block's
// chains as QSHORT does, the zeros' exponents masked off and the
// mantissas packed through gammaLanes (R9), as ACCUMULATE packs them.
// Clobbers Y15 and BX.
#define QLONG(slot, A, P, E, N) \
	VANDPD       gammaAbs<>(SB), Y12, Y13 \
	VPAND        Y15, Y14, Y14 \
	QSUMS(slot, A, E) \
	QMANTISSAS \
	SHLQ         $6, BX \
	ADDQ         R9, BX \
	ADDQ         48(BX), N \
	VMOVDQU      (BX), Y15 \
	VPERMPS      Y13, Y15, Y13 \
	VMULPD       X13, P, P \
	VEXTRACTF128 $1, Y13, X13 \
	VMULPD       X13, P, P \
	VPERMILPD    32(BX), P, P

// QLOAD takes block off's group at AX into Y12; QLOADG adds g's, and
// QSTORE stores the sum back once the group is known to run.
#define QLOAD(off) \
	VMOVUPD off(SI)(AX*8), Y12

#define QLOADG(off) \
	VMOVUPD off(SI)(AX*8), Y12 \
	VADDPD  off(DI)(AX*8), Y12, Y12

#define QSTORE(off) \
	VMOVUPD Y12, off(SI)(AX*8)

// QSTATE writes one block's state st(DI) from its chains and its state
// at the call st(DX): Σe (the exponent sums less 1024 per normal) and the
// count added, logs carried over. Clobbers X15, BX and CX.
#define QSTATE(st, A, P, E, EX, N) \
	VMOVSD       A, st+0(DI) \
	VMOVSD       P, st+8(DI) \
	VMOVHPD      P, st+16(DI) \
	VEXTRACTI128 $1, E, X15 \
	VPADDQ       X15, EX, EX \
	VPSHUFD      $0x4e, EX, X15 \
	VPADDQ       X15, EX, EX \
	VMOVQ        EX, BX \
	MOVQ         N, CX \
	SHLQ         $10, CX \
	SUBQ         CX, BX \
	ADDQ         st+24(DX), BX \
	MOVQ         BX, st+24(DI) \
	ADDQ         st+32(DX), N \
	MOVQ         N, st+32(DI) \
	MOVQ         st+40(DX), BX \
	MOVQ         BX, st+40(DI)

// func gammaQuadAVX2(blk, g []float64, n int, s [4]gammaState) (out [4]gammaState, k, stop int)
TEXT ·gammaQuadAVX2(SB), 0, $128-456
	MOVQ    blk_base+0(FP), SI
	MOVQ    g_base+24(FP), DI
	MOVQ    g_len+32(FP), BX
	MOVQ    n+48(FP), CX
	LEAQ    s+56(FP), DX
	VMOVSD  0(DX), X0
	VMOVSD  48(DX), X1
	VMOVSD  96(DX), X2
	VMOVSD  144(DX), X3
	VMOVSD  8(DX), X4
	VMOVHPD 16(DX), X4, X4
	VMOVSD  56(DX), X5
	VMOVHPD 64(DX), X5, X5
	VMOVSD  104(DX), X6
	VMOVHPD 112(DX), X6, X6
	VMOVSD  152(DX), X7
	VMOVHPD 160(DX), X7, X7
	VPXOR   Y8, Y8, Y8
	VPXOR   Y9, Y9, Y9
	VPXOR   Y10, Y10, Y10
	VPXOR   Y11, Y11, Y11
	XORQ    R10, R10
	XORQ    R11, R11
	XORQ    R12, R12
	XORQ    R13, R13
	LEAQ    ·gammaLanes(SB), R9
	ANDQ    $-4, CX
	XORQ    AX, AX
	TESTQ   BX, BX
	JNZ     addloop

loop:
	CMPQ AX, CX
	JGE  ran
	QLOAD(0)
	QCLASSIFY(long0)
	QSHORT(0, X0, X4, Y8, R10)

next1:
	QLOAD(32768)
	QCLASSIFY(long1)
	QSHORT(32, X1, X5, Y9, R11)

next2:
	QLOAD(65536)
	QCLASSIFY(long2)
	QSHORT(64, X2, X6, Y10, R12)

next3:
	QLOAD(98304)
	QCLASSIFY(long3)
	QSHORT(96, X3, X7, Y11, R13)

next:
	ADDQ $4, AX
	JMP  loop

long0:
	QCLEAN(stop0)
	QLONG(0, X0, X4, Y8, R10)
	JMP next1

long1:
	QCLEAN(stop1)
	QLONG(32, X1, X5, Y9, R11)
	JMP next2

long2:
	QCLEAN(stop2)
	QLONG(64, X2, X6, Y10, R12)
	JMP next3

long3:
	QCLEAN(stop3)
	QLONG(96, X3, X7, Y11, R13)
	JMP next

addloop:
	CMPQ AX, CX
	JGE  ran
	QLOADG(0)
	QCLASSIFY(addlong0)
	QSTORE(0)
	QSHORT(0, X0, X4, Y8, R10)

addnext1:
	QLOADG(32768)
	QCLASSIFY(addlong1)
	QSTORE(32768)
	QSHORT(32, X1, X5, Y9, R11)

addnext2:
	QLOADG(65536)
	QCLASSIFY(addlong2)
	QSTORE(65536)
	QSHORT(64, X2, X6, Y10, R12)

addnext3:
	QLOADG(98304)
	QCLASSIFY(addlong3)
	QSTORE(98304)
	QSHORT(96, X3, X7, Y11, R13)

addnext:
	ADDQ $4, AX
	JMP  addloop

addlong0:
	QCLEAN(stop0)
	QSTORE(0)
	QLONG(0, X0, X4, Y8, R10)
	JMP addnext1

addlong1:
	QCLEAN(stop1)
	QSTORE(32768)
	QLONG(32, X1, X5, Y9, R11)
	JMP addnext2

addlong2:
	QCLEAN(stop2)
	QSTORE(65536)
	QLONG(64, X2, X6, Y10, R12)
	JMP addnext3

addlong3:
	QCLEAN(stop3)
	QSTORE(98304)
	QLONG(96, X3, X7, Y11, R13)
	JMP addnext

ran:
	MOVQ $4, R8
	JMP  done

stop0:
	MOVQ $0, R8
	JMP  done

stop1:
	MOVQ $1, R8
	JMP  done

stop2:
	MOVQ $2, R8
	JMP  done

stop3:
	MOVQ $3, R8

done:
	LEAQ out+248(FP), DI
	QSTATE(0, X0, X4, Y8, X8, R10)
	QSTATE(48, X1, X5, Y9, X9, R11)
	QSTATE(96, X2, X6, Y10, X10, R12)
	QSTATE(144, X3, X7, Y11, X11, R13)
	MOVQ AX, k+440(FP)
	MOVQ R8, stop+448(FP)
	VZEROUPPER
	RET
