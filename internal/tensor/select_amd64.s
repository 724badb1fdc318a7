// Select, max and f64 kernels for select.go. The AVX-512 kernels are reached at
// levelAVX512 (AVX512F with OS-saved opmask and ZMM state), the AVX2 ones
// at levelAVX2 and above. Each does, lane by lane, what the scalar loop
// beside its binding does, in coordinate order. A left-packed vector is
// stored whole: the lanes past the packed ones are clobbered, which the
// callers' room rules allow for. Every instruction that touches a vector
// register is VEX or EVEX encoded (make lint rejects a legacy SSE one).

#include "textflag.h"

// iota16 is the dwords 0, 1, …, 15: the AVX-512 compress kernel's first
// sixteen coordinate indices.
DATA iota16<>+0(SB)/4, $0
DATA iota16<>+4(SB)/4, $1
DATA iota16<>+8(SB)/4, $2
DATA iota16<>+12(SB)/4, $3
DATA iota16<>+16(SB)/4, $4
DATA iota16<>+20(SB)/4, $5
DATA iota16<>+24(SB)/4, $6
DATA iota16<>+28(SB)/4, $7
DATA iota16<>+32(SB)/4, $8
DATA iota16<>+36(SB)/4, $9
DATA iota16<>+40(SB)/4, $10
DATA iota16<>+44(SB)/4, $11
DATA iota16<>+48(SB)/4, $12
DATA iota16<>+52(SB)/4, $13
DATA iota16<>+56(SB)/4, $14
DATA iota16<>+60(SB)/4, $15
GLOBL iota16<>(SB), RODATA|NOPTR, $64

// func gatherKeysAVX512(dst, v *float64, n int, lo, hi uint64) (above, inside int)
//
// Eight coordinates a step: key = bits &^ sign, zeroed where it is NaN or
// ±Inf (key ≥ 0x7ff<<52); K2 = key ≤ hi, K3 = K2 ∧ key ≥ lo. The keys K3
// selects are packed and stored at dst[inside]; above counts the lanes K2
// leaves out.
TEXT ·gatherKeysAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ lo+24(FP), Z29
	VPBROADCASTQ hi+32(FP), Z28
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z31
	MOVQ         $0x7ff0000000000000, AX
	VPBROADCASTQ AX, Z30
	XORQ         AX, AX                  // coordinate
	XORQ         BX, BX                  // keys stored
	XORQ         DX, DX                  // keys ≤ hi

loop:
	VPANDQ      (SI)(AX*8), Z31, Z0
	VPCMPUQ     $1, Z30, Z0, K1     // finite: key < exp
	VMOVDQA64.Z Z0, K1, Z0
	VPCMPUQ     $2, Z28, Z0, K2     // key ≤ hi
	VPCMPUQ     $5, Z29, Z0, K2, K3 // and key ≥ lo
	KMOVW       K2, R8
	POPCNTL     R8, R8
	ADDQ        R8, DX
	KMOVW       K3, R9
	POPCNTL     R9, R9
	VPCOMPRESSQ Z0, K3, Z1
	VMOVDQU64   Z1, (DI)(BX*8)
	ADDQ        R9, BX
	ADDQ        $8, AX
	CMPQ        AX, CX
	JLT         loop

	SUBQ DX, CX
	MOVQ CX, above+40(FP)
	MOVQ BX, inside+48(FP)
	VZEROUPPER
	RET

// func gatherKeysAVX2(dst, v *float64, n int, lo, hi uint64, perm *permEntry) (above, inside int)
//
// gatherKeysAVX512 four coordinates a step, with signed compares (no key
// or bound reaches 2⁶³) and the lane mask from VMOVMSKPD; perm's row for
// the in-bracket mask packs the keys.
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

// func compressAboveAVX512(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int) (i, out, tiesLeft int)
//
// Sixteen coordinates a step, as two ZMMs: the 16-bit mask of finite keys
// above thr, plus the lowest set bits of the mask of keys equal to thr
// while ties lasts, selects the indices (one VPCOMPRESSD over the running
// index vector) and the values (a VCOMPRESSPD per half). It stops at n or
// once fewer than 16 slots of room are left. thr must be below 0x7ff<<52:
// one unsigned compare of key − (thr+1) then tells both apart.
TEXT ·compressAboveAVX512(SB), NOSPLIT, $0-80
	MOVQ         idx+0(FP), DI
	MOVQ         vals+8(FP), R8
	MOVQ         room+16(FP), R9
	MOVQ         v+24(FP), SI
	MOVQ         n+32(FP), CX
	VPBROADCASTQ thr+40(FP), Z29
	MOVQ         ties+48(FP), R10
	SUBQ         $16, R9                 // a step needs out ≤ room−16
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z31
	MOVQ         thr+40(FP), AX
	INCQ         AX
	VPBROADCASTQ AX, Z26                 // thr+1
	MOVQ         $0x7ff0000000000000, DX
	SUBQ         AX, DX
	VPBROADCASTQ DX, Z30                 // 0x7ff<<52 − (thr+1)
	VMOVDQU32    iota16<>(SB), Z28       // this step's indices
	MOVL         $16, AX
	VPBROADCASTD AX, Z27
	XORQ         AX, AX                  // coordinate
	XORQ         BX, BX                  // taken

loop:
	VMOVDQU64 (SI)(AX*8), Z0
	VMOVDQU64 64(SI)(AX*8), Z1
	VPANDQ    Z0, Z31, Z2
	VPANDQ    Z1, Z31, Z3
	VPSUBQ    Z26, Z2, Z4
	VPSUBQ    Z26, Z3, Z5
	VPCMPUQ   $1, Z30, Z4, K1     // thr < key < 0x7ff<<52: finite and above thr
	VPCMPUQ   $1, Z30, Z5, K2
	VPCMPUQ   $0, Z29, Z2, K3     // key == thr
	VPCMPUQ   $0, Z29, Z3, K4
	KUNPCKBW  K1, K2, K5
	KUNPCKBW  K3, K4, K6
	KMOVW     K5, R11
	KMOVW     K6, R12
	TESTQ     R12, R12
	JNZ       ties

take:
	KMOVW        R11, K1
	VPCOMPRESSD  Z28, K1, Z4
	VMOVDQU32    Z4, (DI)(BX*4)
	VCOMPRESSPD  Z0, K1, Z5
	VMOVUPD      Z5, (R8)(BX*8)
	MOVL         R11, R13
	ANDL         $0xff, R13
	POPCNTL      R13, R13
	ADDQ         R13, BX
	KSHIFTRW     $8, K1, K2
	VCOMPRESSPD  Z1, K2, Z6
	VMOVUPD      Z6, (R8)(BX*8)
	SHRL         $8, R11
	POPCNTL      R11, R11
	ADDQ         R11, BX
	VPADDD       Z27, Z28, Z28
	ADDQ         $16, AX
	CMPQ         AX, CX
	JGE          done
	CMPQ         BX, R9
	JLE          loop

done:
	MOVQ AX, i+56(FP)
	MOVQ BX, out+64(FP)
	MOVQ R10, tiesLeft+72(FP)
	VZEROUPPER
	RET

ties:
	// Take every key equal to thr while they fit in ties, else the
	// lowest ties of them, one set bit at a time.
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
	ANDQ R12, R13   // lowest set bit
	ORQ  R13, R11
	LEAQ -1(R12), R13
	ANDQ R13, R12   // cleared
	DECQ R10
	JNZ  tieLoop
	JMP  take

// func compressAboveAVX2(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int, perm *permEntry) (i, out, tiesLeft int)
//
// compressAboveAVX512 four coordinates a step: signed compares, the lane
// mask from VMOVMSKPD, and perm's row for it packing the values (VPERMD)
// and the indices (VPERMILPS). It stops at n or once fewer than 16 slots
// of room are left.
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

// func maxIndexAVX512(idx *int32, n int) uint32
//
// Sixteen indices a step into one running unsigned dword max (VPMAXUD: a
// negative index is 2³¹ or more), folded across the lanes at the end.
TEXT ·maxIndexAVX512(SB), NOSPLIT, $0-20
	MOVQ   idx+0(FP), SI
	MOVQ   n+8(FP), CX
	VPXORD Z0, Z0, Z0
	XORQ   AX, AX

loop:
	VPMAXUD (SI)(AX*4), Z0, Z0
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     loop

	VSHUFI64X2 $0x4e, Z0, Z0, Z1 // swap the 256-bit halves
	VPMAXUD    Z1, Z0, Z0
	VSHUFI64X2 $0xb1, Z0, Z0, Z1 // swap the 128-bit lanes of each half
	VPMAXUD    Z1, Z0, Z0
	VPSHUFD    $0x4e, Z0, Z1     // swap the qwords of each lane
	VPMAXUD    Z1, Z0, Z0
	VPSHUFD    $0xb1, Z0, Z1     // swap the dwords of each qword
	VPMAXUD    Z1, Z0, Z0
	VMOVD      X0, AX
	MOVL       AX, ret+16(FP)
	VZEROUPPER
	RET

// func maxIndexAVX2(idx *int32, n int) uint32
//
// maxIndexAVX512 eight indices a step.
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

// func maxKeyAVX512(v *float64, n int) uint64
//
// Eight coordinates a step: key = bits &^ sign into one running unsigned
// qword max (VPMAXUQ), folded across the lanes at the end.
TEXT ·maxKeyAVX512(SB), NOSPLIT, $0-24
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z31
	VPXORQ       Z0, Z0, Z0
	XORQ         AX, AX

loop:
	VPANDQ  (SI)(AX*8), Z31, Z1
	VPMAXUQ Z1, Z0, Z0
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop

	VSHUFI64X2 $0x4e, Z0, Z0, Z1
	VPMAXUQ    Z1, Z0, Z0
	VSHUFI64X2 $0xb1, Z0, Z0, Z1
	VPMAXUQ    Z1, Z0, Z0
	VPSHUFD    $0x4e, Z0, Z1
	VPMAXUQ    Z1, Z0, Z0
	VMOVQ      X0, AX
	MOVQ       AX, ret+16(FP)
	VZEROUPPER
	RET

// func maxKeyAVX2(v *float64, n int) uint64
//
// maxKeyAVX512 four coordinates a step. AVX2 has no qword max: a signed
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

// func putF64sAVX2(dst *byte, src *float64, n int)
//
// amd64 stores a float64 little-endian: the move is a copy of 8·n bytes.
TEXT ·putF64sAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func readF64sAVX2(dst *float64, src *byte, n int)
TEXT ·readF64sAVX2(SB), NOSPLIT, $0-24
	JMP ·putF64sAVX2(SB)
