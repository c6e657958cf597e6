#include "textflag.h"

// AVX2 body of absQuad (desc.go): Σ|acc + g| over four consecutive
// sumBlocks, acc += g stored back, one chain per block. Each iteration
// takes one group of four elements of each block, at the same index in
// every block:
//
//   - v = r + g, one VADDPD a block, stored back over the group's slots;
//   - |v| is v with the sign bit cleared (VANDPD), as math.Abs gives;
//   - a 4×4 transpose (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) turns the
//     four blocks' groups into four registers whose lane b holds block b's
//     element i, i+1, i+2 and i+3;
//   - four VADDPD add them, in that order, into Y0, whose lane b is block
//     b's chain: each block's sum adds its elements one at a time in
//     element order, as absQuad's scalar chains do.
//
// The chain is the first operand of each add, as in absQuad's s += |v|;
// there is no FMA.

// block is the byte length of one sumBlock of float64.
#define block 32768

// ADDBACK loads block b's group at CX into y, adds g's and stores the sum
// back to acc, then clears its sign bit.
#define ADDBACK(off, y) \
	VMOVUPD off(SI)(CX*1), y \
	VADDPD  off(DI)(CX*1), y, y \
	VMOVUPD y, off(SI)(CX*1) \
	VANDPD  Y15, y, y

// func absQuadAVX2(blk, g []float64) (s0, s1, s2, s3 float64)
TEXT ·absQuadAVX2(SB), NOSPLIT, $0-80
	MOVQ         blk_base+0(FP), SI
	MOVQ         g_base+24(FP), DI
	MOVQ         $0x7fffffffffffffff, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	VXORPD       Y0, Y0, Y0
	XORQ         CX, CX

loop:
	ADDBACK(0, Y1)
	ADDBACK(block, Y2)
	ADDBACK(2*block, Y3)
	ADDBACK(3*block, Y4)
	VUNPCKLPD    Y2, Y1, Y5      // a0 b0 a2 b2
	VUNPCKHPD    Y2, Y1, Y6      // a1 b1 a3 b3
	VUNPCKLPD    Y4, Y3, Y7      // c0 d0 c2 d2
	VUNPCKHPD    Y4, Y3, Y8      // c1 d1 c3 d3
	VPERM2F128   $0x20, Y7, Y5, Y1 // a0 b0 c0 d0
	VPERM2F128   $0x20, Y8, Y6, Y2 // a1 b1 c1 d1
	VPERM2F128   $0x31, Y7, Y5, Y3 // a2 b2 c2 d2
	VPERM2F128   $0x31, Y8, Y6, Y4 // a3 b3 c3 d3
	VADDPD       Y1, Y0, Y0
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y0, Y0
	ADDQ         $32, CX
	CMPQ         CX, $block
	JLT          loop

	VMOVSD       X0, s0+48(FP)
	VMOVHPD      X0, s1+56(FP)
	VEXTRACTF128 $1, Y0, X0
	VMOVSD       X0, s2+64(FP)
	VMOVHPD      X0, s3+72(FP)
	VZEROUPPER
	RET
