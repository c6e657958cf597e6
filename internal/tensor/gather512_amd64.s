#include "textflag.h"

// AVX-512 bodies of the exceedance gathers in vector.go, eight elements to
// an iteration. Each group is compared with eta at once (VCMPPD, predicate
// GT_OQ: false on a NaN, as Go's > is) into the mask K1; VCOMPRESSPD and
// VPCOMPRESSD pack the kept magnitudes and int32 indices to the front of a
// register in lane order, one full-width store of each lands at the
// cursor, and the cursor advances by the mask's popcount. A trailing group
// of four runs the same sequence in the YMM forms. What is stored is
// moved, not computed — |x| is the sign bit cleared, as math.Abs does — so
// the kept pairs are the Go loops' bits. The compress instructions write
// registers only: their memory form is microcoded on several cores.
//
// The gather over a vector asks for its input 16 lines ahead and for the
// list's lines 8 ahead of the cursor: at the d it runs on both streams
// miss every cache, and the two hints took its kernel row about an eighth
// lower (CHANGES.md). The compaction's row gained nothing from the same
// hints, so it has none.
//
// A full-width store writes up to 7 slots past the new cursor. The cursor
// never runs ahead of the element index, so no store passes the end of its
// group, which is inside the block. The bodies trust their caller: they
// run the first len(blk)&^3 elements and every slice holds at least that
// many.

DATA laneIota8<>+0(SB)/4, $0
DATA laneIota8<>+4(SB)/4, $1
DATA laneIota8<>+8(SB)/4, $2
DATA laneIota8<>+12(SB)/4, $3
DATA laneIota8<>+16(SB)/4, $4
DATA laneIota8<>+20(SB)/4, $5
DATA laneIota8<>+24(SB)/4, $6
DATA laneIota8<>+28(SB)/4, $7
GLOBL laneIota8<>(SB), RODATA|NOPTR, $32

// PACK8 stores the lanes of the magnitudes in Z0 and the indices in Y13
// that K1 keeps at the cursor DX, then advances it. Clobbers BX, Z0, Y3.
#define PACK8 \
	VCOMPRESSPD.Z Z0, K1, Z0 \
	VMOVUPD       Z0, (DI)(DX*8) \
	VPCOMPRESSD.Z Y13, K1, Y3 \
	VMOVDQU       Y3, (R8)(DX*4) \
	KMOVW         K1, BX \
	POPCNTL       BX, BX \
	ADDQ          BX, DX

// PACK4 is PACK8 for a group of four: Y0 and X13.
#define PACK4 \
	VCOMPRESSPD.Z Y0, K1, Y0 \
	VMOVUPD       Y0, (DI)(DX*8) \
	VPCOMPRESSD.Z X13, K1, X3 \
	VMOVDQU       X3, (R8)(DX*4) \
	KMOVW         K1, BX \
	POPCNTL       BX, BX \
	ADDQ          BX, DX

// func pairsAboveAVX512(blk []float64, eta float64, base int32, outM []float64, outI []int32) int
TEXT ·pairsAboveAVX512(SB), NOSPLIT, $0-96
	MOVQ         blk_base+0(FP), SI
	MOVQ         blk_len+8(FP), CX
	VBROADCASTSD eta+24(FP), Z14
	MOVL         base+32(FP), AX
	VPBROADCASTD AX, Y13
	VPADDD       laneIota8<>(SB), Y13, Y13
	MOVQ         outM_base+40(FP), DI
	MOVQ         outI_base+64(FP), R8
	MOVL         $8, AX
	VPBROADCASTD AX, Y12
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z15
	MOVQ         CX, R9
	ANDQ         $-8, R9
	ANDQ         $-4, CX
	XORQ         AX, AX
	XORQ         DX, DX
	CMPQ         AX, R9
	JGE          tail

loop:
	PREFETCHT0 1024(SI)(AX*8)
	PREFETCHT0 512(DI)(DX*8)
	VPANDQ     (SI)(AX*8), Z15, Z0
	VCMPPD     $0x1e, Z14, Z0, K1
	PACK8
	VPADDD Y12, Y13, Y13
	ADDQ   $8, AX
	CMPQ   AX, R9
	JLT    loop

tail:
	CMPQ   AX, CX
	JGE    done
	VPANDQ (SI)(AX*8), Y15, Y0
	VCMPPD $0x1e, Y14, Y0, K1
	PACK4

done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET

// func compactAboveAVX512(blkM []float64, blkI []int32, eta float64, outM []float64, outI []int32) int
TEXT ·compactAboveAVX512(SB), NOSPLIT, $0-112
	MOVQ         blkM_base+0(FP), SI
	MOVQ         blkM_len+8(FP), CX
	MOVQ         blkI_base+24(FP), R10
	VBROADCASTSD eta+48(FP), Z14
	MOVQ         outM_base+56(FP), DI
	MOVQ         outI_base+80(FP), R8
	MOVQ         CX, R9
	ANDQ         $-8, R9
	ANDQ         $-4, CX
	XORQ         AX, AX
	XORQ         DX, DX
	CMPQ         AX, R9
	JGE          tail

loop:
	VMOVUPD (SI)(AX*8), Z0
	VMOVDQU (R10)(AX*4), Y13
	VCMPPD  $0x1e, Z14, Z0, K1
	PACK8
	ADDQ    $8, AX
	CMPQ    AX, R9
	JLT     loop

tail:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y0
	VMOVDQU (R10)(AX*4), X13
	VCMPPD  $0x1e, Y14, Y0, K1
	PACK4

done:
	MOVQ DX, ret+104(FP)
	VZEROUPPER
	RET

// func atLeastAVX512(g []float64, floor uint64, base int32, vals []float64, idx []int32) int
//
// The top-k gather: every (x, index) whose masked bits are at least
// floor, compared as unsigned integers (VPCMPUQ, predicate NLT), so a NaN
// ranks above +Inf as in the Go loop. It keeps x itself, sign and all. It
// runs the first len(g)&^7 elements; its caller leaves vals and idx 7
// slots past the last kept pair for the full-width stores.
TEXT ·atLeastAVX512(SB), NOSPLIT, $0-96
	MOVQ         g_base+0(FP), SI
	MOVQ         g_len+8(FP), CX
	VPBROADCASTQ floor+24(FP), Z14
	MOVL         base+32(FP), AX
	VPBROADCASTD AX, Y13
	VPADDD       laneIota8<>(SB), Y13, Y13
	MOVQ         vals_base+40(FP), DI
	MOVQ         idx_base+64(FP), R8
	MOVL         $8, AX
	VPBROADCASTD AX, Y12
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z15
	ANDQ         $-8, CX
	XORQ         AX, AX
	XORQ         DX, DX
	CMPQ         AX, CX
	JGE          done

loop:
	PREFETCHT0 1024(SI)(AX*8)
	PREFETCHT0 512(DI)(DX*8)
	VMOVUPD    (SI)(AX*8), Z0
	VPANDQ     Z0, Z15, Z1
	VPCMPUQ    $5, Z14, Z1, K1
	PACK8
	VPADDD     Y12, Y13, Y13
	ADDQ       $8, AX
	CMPQ       AX, CX
	JLT        loop

done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET
