#include "textflag.h"

// AVX2 body of gammaLoop (desc.go), one group of four elements to an
// iteration, each sum in the Go loop's order:
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
