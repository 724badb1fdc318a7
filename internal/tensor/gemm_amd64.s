// Register-tile micro-kernels and the panel transpose for the GEMM driver in
// gemm.go. The AVX2 kernels are only reached at levelAVX2 and above (FMA +
// AVX2 with OS-saved YMM state), the AVX-512 tile only at levelAVX512
// (AVX512F with OS-saved opmask and ZMM state); gemmTileGo is the portable
// kernel with the same contract. Every instruction that touches a vector
// register is VEX or EVEX encoded: a legacy SSE instruction after a write
// to the upper lanes stalls on the state transition.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmTileAVX2(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int, zero bool)
//
// One 4×16 half of the tile: for i in [0,4), j in [0,16), p ascending in [0,k)
//	c[i*ldc+j] = fma(a[i*ars+p*aps], b[p*ldb+j], c[i*ldc+j])
// The tile of C is loaded into Y0..Y7 once (or, with zero, Y0..Y7 start
// at +0 and C is not read), the whole reduction runs
// register-to-register (two loads of B and four broadcasts of A′ feed
// eight FMAs of eight lanes each per step), and it is stored once. Strides
// are in elements. k must be > 0. BP is not touched.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	MOVQ k+56(FP), CX
	SHLQ $2, DX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (DX)(DX*2), R12 // 3·ldc
	LEAQ (R8)(R8*2), R11 // 3·ars

	CMPB    zero+64(FP), $0
	JNE     zeroed
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(DX*1), Y2
	VMOVUPS 32(DI)(DX*1), Y3
	VMOVUPS (DI)(DX*2), Y4
	VMOVUPS 32(DI)(DX*2), Y5
	VMOVUPS (DI)(R12*1), Y6
	VMOVUPS 32(DI)(R12*1), Y7
	JMP     loop

zeroed:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R8*1), Y11
	VBROADCASTSS (SI)(R8*2), Y12
	VBROADCASTSS (SI)(R11*1), Y13
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ R9, SI
	ADDQ R10, BX
	DECQ CX
	JNE  loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(DX*1)
	VMOVUPS Y3, 32(DI)(DX*1)
	VMOVUPS Y4, (DI)(DX*2)
	VMOVUPS Y5, 32(DI)(DX*2)
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET

// func gemmTileAVX512(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int, zero bool)
//
// The 4×32 register tile: for i in [0,4), j in [0,32), p ascending in [0,k)
//	c[i*ldc+j] = fma(a[i*ars+p*aps], b[p*ldb+j], c[i*ldc+j])
// gemmTileAVX2's register plan with sixteen lanes per vector: the tile
// of C lives in Z0..Z7 (+0 with zero), two loads of B and four broadcasts of A′ feed
// eight FMAs per step. k must be > 0.
TEXT ·gemmTileAVX512(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	MOVQ k+56(FP), CX
	SHLQ $2, DX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (DX)(DX*2), R12 // 3·ldc
	LEAQ (R8)(R8*2), R11 // 3·ars

	CMPB    zero+64(FP), $0
	JNE     zeroed
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS (DI)(DX*1), Z2
	VMOVUPS 64(DI)(DX*1), Z3
	VMOVUPS (DI)(DX*2), Z4
	VMOVUPS 64(DI)(DX*2), Z5
	VMOVUPS (DI)(R12*1), Z6
	VMOVUPS 64(DI)(R12*1), Z7
	JMP     loop

zeroed:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

loop:
	VMOVUPS      (BX), Z8
	VMOVUPS      64(BX), Z9
	VBROADCASTSS (SI), Z10
	VBROADCASTSS (SI)(R8*1), Z11
	VBROADCASTSS (SI)(R8*2), Z12
	VBROADCASTSS (SI)(R11*1), Z13
	VFMADD231PS  Z8, Z10, Z0
	VFMADD231PS  Z9, Z10, Z1
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z9, Z11, Z3
	VFMADD231PS  Z8, Z12, Z4
	VFMADD231PS  Z9, Z12, Z5
	VFMADD231PS  Z8, Z13, Z6
	VFMADD231PS  Z9, Z13, Z7
	ADDQ         R9, SI
	ADDQ         R10, BX
	DECQ         CX
	JNE          loop

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(DX*1)
	VMOVUPS Z3, 64(DI)(DX*1)
	VMOVUPS Z4, (DI)(DX*2)
	VMOVUPS Z5, 64(DI)(DX*2)
	VMOVUPS Z6, (DI)(R12*1)
	VMOVUPS Z7, 64(DI)(R12*1)
	VZEROUPPER
	RET

// func transposeAVX2(dst *float32, width int, src *float32, vs, w8, k8 int)
//
// dst[p*width+s] = src[s*vs+p] for s < w8, p < k8 (positive multiples of
// 8): eight source vectors at a time, eight steps at a time, each 8×8
// block through registers — two rounds of in-lane interleaves and one
// exchange of 128-bit halves. Moves only; no value changes.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ width+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ vs+24(FP), R8
	MOVQ w8+32(FP), R9
	MOVQ k8+40(FP), R10
	SHLQ $2, DX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11 // 3·vs
	LEAQ (DX)(DX*2), R12 // 3·width

vectors:
	MOVQ SI, BX  // vector s, step p
	MOVQ DI, CX  // dst row p, lane s
	MOVQ R10, R13

steps:
	LEAQ       (BX)(R8*4), AX
	VMOVUPS    (BX), Y0
	VMOVUPS    (BX)(R8*1), Y1
	VMOVUPS    (BX)(R8*2), Y2
	VMOVUPS    (BX)(R11*1), Y3
	VMOVUPS    (AX), Y4
	VMOVUPS    (AX)(R8*1), Y5
	VMOVUPS    (AX)(R8*2), Y6
	VMOVUPS    (AX)(R11*1), Y7
	VUNPCKLPS  Y1, Y0, Y8         // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS  Y1, Y0, Y9         // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0 // a0 b0 c0 d0 | a4 b4 c4 d4
	VSHUFPS    $0xee, Y10, Y8, Y1 // a1 b1 c1 d1 | a5 b5 c5 d5
	VSHUFPS    $0x44, Y11, Y9, Y2
	VSHUFPS    $0xee, Y11, Y9, Y3
	VSHUFPS    $0x44, Y14, Y12, Y4
	VSHUFPS    $0xee, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8  // a0 … h0
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12 // a4 … h4
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	LEAQ       (CX)(DX*4), AX
	VMOVUPS    Y8, (CX)
	VMOVUPS    Y9, (CX)(DX*1)
	VMOVUPS    Y10, (CX)(DX*2)
	VMOVUPS    Y11, (CX)(R12*1)
	VMOVUPS    Y12, (AX)
	VMOVUPS    Y13, (AX)(DX*1)
	VMOVUPS    Y14, (AX)(DX*2)
	VMOVUPS    Y15, (AX)(R12*1)
	ADDQ       $32, BX
	LEAQ       (CX)(DX*8), CX
	SUBQ       $8, R13
	JNE        steps

	LEAQ (SI)(R8*8), SI
	ADDQ $32, DI
	SUBQ $8, R9
	JNE  vectors
	VZEROUPPER
	RET
