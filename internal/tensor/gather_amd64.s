#include "textflag.h"

// AVX2 bodies of the exceedance loops in vector.go, four elements to an
// iteration. The gathers keep the Go loops' store-then-advance shape:
// every group of four is compared with eta at once (VCMPPD, predicate
// GT_OQ: false on a NaN, as Go's > is), the 4-bit mask picks an entry of
// gatherLanes, VPERMPS packs the kept magnitudes and VPERMILPS the kept
// int32 indices to the front, one full-width store of each lands at the
// cursor, and the cursor advances by the entry's count. What is stored is
// moved, not computed — |x| is the sign bit cleared, as math.Abs does — so
// the kept pairs are the Go loop's bits.
//
// A full-width store writes up to 3 slots past the new cursor. The cursor
// never runs ahead of the element index, so no store passes the end of the
// group, which is inside the block. The bodies trust their caller: they
// run the first len(blk)&^3 elements and every slice holds at least that
// many.

DATA laneIota<>+0(SB)/4, $0
DATA laneIota<>+4(SB)/4, $1
DATA laneIota<>+8(SB)/4, $2
DATA laneIota<>+12(SB)/4, $3
GLOBL laneIota<>(SB), RODATA|NOPTR, $16

// PACK stores the kept lanes of the magnitudes in Y0 and the indices in
// X13 at the cursor DX, then advances it. Y1 is the comparison with eta;
// R9 the table; clobbers BX, Y0, Y2 and X3.
#define PACK \
	VMOVMSKPD Y1, BX \
	SHLQ      $6, BX \
	ADDQ      R9, BX \
	VMOVDQU   (BX), Y2 \
	VPERMPS   Y0, Y2, Y0 \
	VMOVUPD   Y0, (DI)(DX*8) \
	VPERMILPS 32(BX), X13, X3 \
	VMOVDQU   X3, (R8)(DX*4) \
	MOVL      48(BX), BX \
	ADDQ      BX, DX

// func pairsAboveAVX2(blk []float64, eta float64, base int32, outM []float64, outI []int32) int
TEXT ·pairsAboveAVX2(SB), NOSPLIT, $0-96
	MOVQ         blk_base+0(FP), SI
	MOVQ         blk_len+8(FP), CX
	VBROADCASTSD eta+24(FP), Y14
	MOVL         base+32(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, X13
	VPADDD       laneIota<>(SB), X13, X13
	MOVQ         outM_base+40(FP), DI
	MOVQ         outI_base+64(FP), R8
	LEAQ         ·gatherLanes(SB), R9
	MOVL         $4, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $1, Y15, Y15
	ANDQ         $-4, CX
	XORQ         AX, AX
	XORQ         DX, DX

loop:
	CMPQ      AX, CX
	JGE       done
	VANDPD    (SI)(AX*8), Y15, Y0
	VCMPPD    $0x1e, Y14, Y0, Y1
	PACK
	VPADDD    X12, X13, X13
	ADDQ      $4, AX
	JMP       loop

done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET

// func compactAboveAVX2(blkM []float64, blkI []int32, eta float64, outM []float64, outI []int32) int
TEXT ·compactAboveAVX2(SB), NOSPLIT, $0-112
	MOVQ         blkM_base+0(FP), SI
	MOVQ         blkM_len+8(FP), CX
	MOVQ         blkI_base+24(FP), R10
	VBROADCASTSD eta+48(FP), Y14
	MOVQ         outM_base+56(FP), DI
	MOVQ         outI_base+80(FP), R8
	LEAQ         ·gatherLanes(SB), R9
	ANDQ         $-4, CX
	XORQ         AX, AX
	XORQ         DX, DX

loop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y0
	VMOVDQU (R10)(AX*4), X13
	VCMPPD  $0x1e, Y14, Y0, Y1
	PACK
	ADDQ    $4, AX
	JMP     loop

done:
	MOVQ DX, ret+104(FP)
	VZEROUPPER
	RET

// func excessLanesAVX2(kept []float64, eta float64) (s, q [4]float64)
//
// Lane l sums the elements j ≡ l (mod 4): x = a - eta, s + x, x * x,
// q + x², each rounded on its own (no FMA), as excessLanes does.
TEXT ·excessLanesAVX2(SB), NOSPLIT, $0-96
	MOVQ         kept_base+0(FP), SI
	MOVQ         kept_len+8(FP), CX
	VBROADCASTSD eta+24(FP), Y14
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	ANDQ         $-4, CX
	XORQ         AX, AX

loop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD  Y14, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  Y2, Y2, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ    $4, AX
	JMP     loop

done:
	VMOVSD       X0, s_0+32(FP)
	VMOVHPD      X0, s_1+40(FP)
	VEXTRACTF128 $1, Y0, X0
	VMOVSD       X0, s_2+48(FP)
	VMOVHPD      X0, s_3+56(FP)
	VMOVSD       X1, q_0+64(FP)
	VMOVHPD      X1, q_1+72(FP)
	VEXTRACTF128 $1, Y1, X1
	VMOVSD       X1, q_2+80(FP)
	VMOVHPD      X1, q_3+88(FP)
	VZEROUPPER
	RET
