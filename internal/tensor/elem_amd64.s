// AVX2 elementwise kernels for elem.go. Only reached when detectSIMD()
// confirms AVX2 with OS-saved YMM state. Each loop takes eight lanes per
// step over n elements (n > 0, a multiple of 8) and does, lane by lane,
// the operations of the scalar loop beside its binding in elem.go in the
// same order, each rounded on its own: no FMA. Loads and stores are
// unaligned.

#include "textflag.h"

// func sgdMomentumAVX2(p, v, grad *float32, n int, lr, mom float32)
//
// x = mom·v + grad; x = 0 where x's exponent bits are all zero (subnormal or
// ±0, as FlushSubnormal32); v = x; p = p − lr·x.
TEXT ·sgdMomentumAVX2(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y14
	VBROADCASTSS mom+36(FP), Y15
	MOVL         $0x7f800000, AX
	MOVQ         AX, X13
	VPBROADCASTD X13, Y13        // exponent mask
	VPXOR        Y12, Y12, Y12
	XORQ         AX, AX

loop:
	VMULPS   (SI)(AX*4), Y15, Y0 // mom·v
	VADDPS   (DX)(AX*4), Y0, Y0  // + grad
	VANDPS   Y13, Y0, Y1
	VPCMPEQD Y12, Y1, Y1         // exponent == 0
	VANDNPS  Y0, Y1, Y0          // flushed to +0 there
	VMOVUPS  Y0, (SI)(AX*4)
	VMULPS   Y0, Y14, Y1         // lr·v
	VMOVUPS  (DI)(AX*4), Y2
	VSUBPS   Y1, Y2, Y2          // p − lr·v
	VMOVUPS  Y2, (DI)(AX*4)
	ADDQ     $8, AX
	CMPQ     AX, CX
	JLT      loop
	VZEROUPPER
	RET

// func reluAVX2(dst, src *float32, n int)
//
// dst = src ≤ 0 ? +0 : src, a compare and a mask. VMAXPS would not do: it
// returns its second operand when either is NaN and when both are zeros.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX

loop:
	VMOVUPS (SI)(AX*4), Y0
	VCMPPS  $2, Y15, Y0, Y1 // src ≤ 0 (false for NaN)
	VANDNPS Y0, Y1, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func reluBackwardAVX2(dx, y, grad *float32, n int)
//
// dx = y ≤ 0 ? +0 : grad.
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   y+8(FP), SI
	MOVQ   grad+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX

loop:
	VMOVUPS (SI)(AX*4), Y0
	VCMPPS  $2, Y15, Y0, Y1
	VANDNPS (DX)(AX*4), Y1, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func narrowAVX2(dst *float32, src *float64, n int)
TEXT ·narrowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	VCVTPD2PSY (SI)(AX*8), X0
	VCVTPD2PSY 32(SI)(AX*8), X1
	VMOVUPS    X0, (DI)(AX*4)
	VMOVUPS    X1, 16(DI)(AX*4)
	ADDQ       $8, AX
	CMPQ       AX, CX
	JLT        loop
	VZEROUPPER
	RET

// func narrowBytesAVX2(dst *byte, src *float64, n int)
//
// narrowAVX2 into a byte buffer: amd64 stores a float32 little-endian.
TEXT ·narrowBytesAVX2(SB), NOSPLIT, $0-24
	JMP ·narrowAVX2(SB)

// func widenAVX2(dst *float64, src *float32, n int)
TEXT ·widenAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y1, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       loop
	VZEROUPPER
	RET

// func widenBytesAVX2(dst *float64, src *byte, n int)
TEXT ·widenBytesAVX2(SB), NOSPLIT, $0-24
	JMP ·widenAVX2(SB)

// func subNarrowedAVX2(dst *float64, p *float32, start *float64, n int)
//
// dst = float64(p) − float64(float32(start)).
TEXT ·subNarrowedAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ start+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

loop:
	VCVTPS2PD  (SI)(AX*4), Y0
	VCVTPS2PD  16(SI)(AX*4), Y1
	VCVTPD2PSY (DX)(AX*8), X2
	VCVTPD2PSY 32(DX)(AX*8), X3
	VCVTPS2PD  X2, Y2
	VCVTPS2PD  X3, Y3
	VSUBPD     Y2, Y0, Y0
	VSUBPD     Y3, Y1, Y1
	VMOVUPD    Y0, (DI)(AX*8)
	VMOVUPD    Y1, 32(DI)(AX*8)
	ADDQ       $8, AX
	CMPQ       AX, CX
	JLT        loop
	VZEROUPPER
	RET
