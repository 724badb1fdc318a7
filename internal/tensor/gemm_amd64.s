// AVX2+FMA register-tile micro-kernel for the GEMM driver in gemm.go. Only
// reached when detectSIMD() confirms CPUID support (FMA+AVX2 with OS-saved
// YMM state); gemmTileGo is the portable kernel with the same contract.

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

// func gemmTileFMA(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k int)
//
// The 4×8 register tile: for i in [0,4), j in [0,8), p ascending in [0,k)
//	c[i*ldc+j] = fma(a[i*ars+p*aps], b[p*ldb+j], c[i*ldc+j])
// The tile of C is loaded into Y0..Y7 once, the whole reduction runs
// register-to-register (two loads of B and four broadcasts of A′ feed
// eight FMAs per step), and it is stored once. Strides are in elements.
// k must be > 0. BP is not touched.
TEXT ·gemmTileFMA(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R8
	MOVQ aps+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	MOVQ k+56(FP), CX
	SHLQ $3, DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (DX)(DX*2), R12 // 3·ldc
	LEAQ (R8)(R8*2), R11 // 3·ars

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD 32(DI)(DX*1), Y3
	VMOVUPD (DI)(DX*2), Y4
	VMOVUPD 32(DI)(DX*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7

loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R8*1), Y11
	VBROADCASTSD (SI)(R8*2), Y12
	VBROADCASTSD (SI)(R11*1), Y13
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ R9, SI
	ADDQ R10, BX
	DECQ CX
	JNE  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y5, 32(DI)(DX*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET
