// Select and max kernels for select.go, reached at levelAVX2 and above.
// Each does, lane by lane, what the scalar loop beside its binding does,
// in coordinate order. A left-packed vector is stored whole: the lanes
// past the packed ones are clobbered, which the callers' room rules allow
// for. Every instruction that touches a vector register is VEX encoded
// (make lint rejects a legacy SSE one).

#include "textflag.h"

// func gatherKeysAVX2(dst, v *float64, n int, lo, hi uint64, perm *permEntry) (above, inside int)
//
// Four coordinates a step: key = bits &^ sign, zeroed where it is NaN or
// ±Inf (key ≥ 0x7ff<<52), with signed compares (no key or bound reaches
// 2⁶³). The lane mask of keys in [lo, hi], from VMOVMSKPD, picks perm's
// row, which packs those keys to store at dst[inside]; above counts the
// keys past hi.
TEXT ·gatherKeysAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         perm+40(FP), R8
	VPBROADCASTQ lo+24(FP), Y12
	VPBROADCASTQ hi+32(FP), Y13
	MOVQ         $0x7fffffffffffffff, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ         $0x7ff0000000000000, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	XORQ         AX, AX                  // coordinate
	XORQ         BX, BX                  // keys stored
	XORQ         DX, DX                  // keys above hi

loop:
	VPAND     (SI)(AX*8), Y15, Y0
	VPCMPGTQ  Y0, Y14, Y1         // finite: exp > key
	VPAND     Y1, Y0, Y0
	VPCMPGTQ  Y13, Y0, Y2         // key > hi
	VPCMPGTQ  Y0, Y12, Y3         // lo > key
	VMOVMSKPD Y2, R9
	VPOR      Y2, Y3, Y3
	VMOVMSKPD Y3, R10
	POPCNTL   R9, R9
	ADDQ      R9, DX
	XORL      $15, R10            // in the bracket
	MOVQ      R10, R11
	SHLQ      $6, R11
	VMOVDQU   (R8)(R11*1), Y4
	VPERMD    Y0, Y4, Y5
	VMOVDQU   Y5, (DI)(BX*8)
	POPCNTL   R10, R10
	ADDQ      R10, BX
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

	MOVQ DX, above+48(FP)
	MOVQ BX, inside+56(FP)
	VZEROUPPER
	RET

// func compressAboveAVX2(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int, perm *permEntry) (i, out, tiesLeft int)
//
// Four coordinates a step: the mask of finite keys above thr, plus the
// lowest set bits of the mask of keys equal to thr while ties lasts, from
// signed compares and VMOVMSKPD; perm's row for it packs the values
// (VPERMD) and the indices (VPERMILPS). It stops at n or once fewer than
// 16 slots of room are left.
TEXT ·compressAboveAVX2(SB), NOSPLIT, $0-88
	MOVQ         idx+0(FP), DI
	MOVQ         vals+8(FP), R8
	MOVQ         room+16(FP), R9
	MOVQ         v+24(FP), SI
	MOVQ         n+32(FP), CX
	VPBROADCASTQ thr+40(FP), Y13
	MOVQ         ties+48(FP), R10
	MOVQ         perm+56(FP), DX
	SUBQ         $16, R9
	MOVQ         $0x7fffffffffffffff, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ         $0x7ff0000000000000, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	VMOVDQU      (15*64+32)(DX), X12     // this step's indices: row 15's d is 0, 1, 2, 3
	MOVL         $4, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, X11
	XORQ         AX, AX                  // coordinate
	XORQ         BX, BX                  // taken

loop:
	VMOVDQU   (SI)(AX*8), Y0
	VPAND     Y0, Y15, Y1
	VPCMPGTQ  Y1, Y14, Y2         // finite
	VPCMPGTQ  Y13, Y1, Y3         // key > thr
	VPAND     Y2, Y3, Y3
	VPCMPEQQ  Y13, Y1, Y4         // key == thr
	VMOVMSKPD Y3, R11
	VMOVMSKPD Y4, R12
	TESTQ     R12, R12
	JNZ       ties

take:
	MOVQ      R11, R13
	SHLQ      $6, R13
	VMOVDQU   (DX)(R13*1), Y5
	VPERMD    Y0, Y5, Y6
	VMOVDQU   Y6, (R8)(BX*8)
	VPERMILPS 32(DX)(R13*1), X12, X7
	VMOVDQU   X7, (DI)(BX*4)
	POPCNTL   R11, R11
	ADDQ      R11, BX
	VPADDD    X11, X12, X12
	ADDQ      $4, AX
	CMPQ      AX, CX
	JGE       done
	CMPQ      BX, R9
	JLE       loop

done:
	MOVQ AX, i+64(FP)
	MOVQ BX, out+72(FP)
	MOVQ R10, tiesLeft+80(FP)
	VZEROUPPER
	RET

ties:
	POPCNTL R12, R13
	CMPQ    R13, R10
	JGT     someTies
	SUBQ    R13, R10
	ORQ     R12, R11
	JMP     take

someTies:
	TESTQ R10, R10
	JZ    take

tieLoop:
	MOVQ R12, R13
	NEGQ R13
	ANDQ R12, R13
	ORQ  R13, R11
	LEAQ -1(R12), R13
	ANDQ R13, R12
	DECQ R10
	JNZ  tieLoop
	JMP  take

// func maxIndexAVX2(idx *int32, n int) uint32
//
// Eight indices a step into one running unsigned dword max (VPMAXUD: a
// negative index is 2³¹ or more), folded across the lanes at the end.
TEXT ·maxIndexAVX2(SB), NOSPLIT, $0-20
	MOVQ  idx+0(FP), SI
	MOVQ  n+8(FP), CX
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX

loop:
	VPMAXUD (SI)(AX*4), Y0, Y0
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop

	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET

// func maxKeyAVX2(v *float64, n int) uint64
//
// Four coordinates a step: key = bits &^ sign into one running max,
// folded across the lanes at the end. AVX2 has no qword max: a signed
// compare (no key reaches 2⁶³) and a blend keep the larger key.
TEXT ·maxKeyAVX2(SB), NOSPLIT, $0-24
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         $0x7fffffffffffffff, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	VPXOR        Y0, Y0, Y0
	XORQ         AX, AX

loop:
	VPAND     (SI)(AX*8), Y15, Y1
	VPCMPGTQ  Y0, Y1, Y2         // key > max
	VBLENDVPD Y2, Y1, Y0, Y0
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ     X0, X1, X2
	VBLENDVPD    X2, X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPCMPGTQ     X0, X1, X2
	VBLENDVPD    X2, X1, X0, X0
	VMOVQ        X0, AX
	MOVQ         AX, ret+16(FP)
	VZEROUPPER
	RET
