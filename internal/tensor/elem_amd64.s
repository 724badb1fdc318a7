// AVX2 elementwise kernels for elem.go. Only reached at levelAVX2 and
// above (AVX2 with OS-saved YMM state). Each loop takes eight lanes per
// step over n elements (n > 0, a multiple of 8) and does, lane by lane,
// the operations of the scalar loop beside its binding in elem.go in the
// same order, each rounded on its own: no FMA. Loads and stores are
// unaligned. Every instruction that touches a vector register is VEX
// encoded (VMOVQ, never MOVQ r, X): a legacy SSE instruction after a
// write to the upper lanes stalls on the state transition, and `make
// lint` rejects one.

#include "go_asm.h"
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
	VMOVQ        AX, X13
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

// func subWidenAVX2(dst *float64, p, start *float32, n int)
//
// dst = float64(p) − float64(start).
TEXT ·subWidenAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ start+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

loop:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VCVTPS2PD (DX)(AX*4), Y2
	VCVTPS2PD 16(DX)(AX*4), Y3
	VSUBPD    Y2, Y0, Y0
	VSUBPD    Y3, Y1, Y1
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y1, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       loop
	VZEROUPPER
	RET

// func addRowsAVX2(dst *float32, dstStride int, src *float32, srcStride, rows, width int)
//
// Row by row, eight lanes a step, then four, then one: dst = dst + src,
// dst's element the first operand of each add as in `t[i] += v`.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R8
	MOVQ rows+32(FP), CX
	MOVQ width+40(FP), R9
	SHLQ $2, DX
	SHLQ $2, R8
	MOVQ R9, R10
	ANDQ $-8, R10
	LEAQ -4(R9), R11

addRow:
	XORQ AX, AX
	CMPQ AX, R10
	JGE  addTail4

add8:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R10
	JLT     add8

addTail4:
	CMPQ    AX, R11
	JGT     addTail1
	VMOVUPS (DI)(AX*4), X0
	VADDPS  (SI)(AX*4), X0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX

addTail1:
	CMPQ   AX, R9
	JGE    addNext
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    addTail1

addNext:
	ADDQ DX, DI
	ADDQ R8, SI
	DECQ CX
	JNE  addRow
	VZEROUPPER
	RET

// func maxPool2x2AVX2(out, in *float32, argmax *int, rows, w, inOff int)
//
// Four windows per step. The two input rows' eight lanes are split into
// the four taps (even and odd lanes of each row), each tap's bits turn
// into poolKey's integer key (b ^ (b>>31 & 0x7fffffff)) − (b>>31), and
// taps 1–3 replace the running maximum where their key is strictly
// greater — value, key and the tap's offset {0, 1, w, w+1} selected by one
// mask — so the first of equal keys wins. argmax gets the window's base
// index plus that offset, widened to int64, plus inOff.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ argmax+16(FP), R8
	MOVQ rows+24(FP), CX
	MOVQ w+32(FP), DX
	MOVQ inOff+40(FP), AX

	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14 // inOff
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, X15 // magnitude mask
	MOVL         $1, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, X11 // offset of tap 1
	VMOVD        DX, X12
	VPBROADCASTD X12, X12 // offset of tap 2: w
	VPADDD       X11, X12, X13 // offset of tap 3: w+1
	MOVL         $8, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10 // a step's advance of the window indices
	MOVQ         $0x0000000200000000, AX
	VMOVQ        AX, X9
	MOVQ         $0x0000000600000004, AX
	VPINSRQ      $1, AX, X9, X9 // index of each window's tap 0: {0, 2, 4, 6}
	MOVQ         DX, R9
	SHRQ         $3, R9 // steps per window row: w/2/4
	SHLQ         $2, DX // w in bytes

poolRow:
	MOVQ R9, BX

poolStep:
	VMOVUPS      (SI), Y0
	VMOVUPS      (SI)(DX*1), Y1
	VEXTRACTF128 $1, Y0, X2
	VSHUFPS      $0x88, X2, X0, X3 // tap 0: even lanes of the upper row
	VSHUFPS      $0xdd, X2, X0, X4 // tap 1: odd lanes
	VEXTRACTF128 $1, Y1, X2
	VSHUFPS      $0x88, X2, X1, X5 // tap 2: even lanes of the lower row
	VSHUFPS      $0xdd, X2, X1, X6 // tap 3

	VPSRAD $31, X3, X7
	VPAND  X15, X7, X8
	VPXOR  X3, X8, X0
	VPSUBD X7, X0, X0  // best key
	VPXOR  X1, X1, X1  // best offset

	VPSRAD    $31, X4, X7
	VPAND     X15, X7, X8
	VPXOR     X4, X8, X2
	VPSUBD    X7, X2, X2
	VPCMPGTD  X0, X2, X7 // key > best
	VBLENDVPS X7, X2, X0, X0
	VBLENDVPS X7, X4, X3, X3
	VBLENDVPS X7, X11, X1, X1

	VPSRAD    $31, X5, X7
	VPAND     X15, X7, X8
	VPXOR     X5, X8, X2
	VPSUBD    X7, X2, X2
	VPCMPGTD  X0, X2, X7
	VBLENDVPS X7, X2, X0, X0
	VBLENDVPS X7, X5, X3, X3
	VBLENDVPS X7, X12, X1, X1

	VPSRAD    $31, X6, X7
	VPAND     X15, X7, X8
	VPXOR     X6, X8, X2
	VPSUBD    X7, X2, X2
	VPCMPGTD  X0, X2, X7
	VBLENDVPS X7, X6, X3, X3
	VBLENDVPS X7, X13, X1, X1

	VMOVUPS X3, (DI)
	TESTQ   R8, R8
	JEQ     poolNext
	VPADDD    X9, X1, X1
	VPMOVSXDQ X1, Y1
	VPADDQ    Y14, Y1, Y1
	VMOVDQU   Y1, (R8)
	ADDQ      $32, R8

poolNext:
	VPADDD X10, X9, X9
	ADDQ   $32, SI
	ADDQ   $16, DI
	DECQ   BX
	JNE    poolStep

	ADDQ   DX, SI      // past the lower row
	VPADDD X12, X9, X9
	DECQ   CX
	JNE    poolRow
	VZEROUPPER
	RET

// func addBiasAVX2(dst, b *float32, channels, plane int)
//
// Plane c of dst gets b[c] added to each element, dst's element the first
// operand of each add; a channel whose b[c] is ±0 (all bits but the sign
// clear) is skipped. Eight lanes per step, then one four-lane step and
// single lanes for the tail.
TEXT ·addBiasAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ channels+16(FP), CX
	MOVQ plane+24(FP), R9
	MOVQ R9, R10
	ANDQ $-8, R10
	LEAQ -4(R9), R11

biasChannel:
	MOVL         (SI), AX
	ANDL         $0x7fffffff, AX
	JEQ          biasNext
	VBROADCASTSS (SI), Y1
	XORQ         AX, AX
	CMPQ         AX, R10
	JGE          biasTail4

bias8:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R10
	JLT     bias8

biasTail4:
	CMPQ    AX, R11
	JGT     biasTail1
	VMOVUPS (DI)(AX*4), X0
	VADDPS  X1, X0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ    $4, AX

biasTail1:
	CMPQ   AX, R9
	JGE    biasNext
	VMOVSS (DI)(AX*4), X0
	VADDSS X1, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    biasTail1

biasNext:
	LEAQ (DI)(R9*4), DI
	ADDQ $4, SI
	DECQ CX
	JNE  biasChannel
	VZEROUPPER
	RET

// func tapsAVX2(patch, image *float32, geo *Taps, add bool)
//
// The K taps of one kernel row, kx ascending, each over the channels in
// order: tap kx's columns are lo = max(0, Pad−kx) to hi = min(OW,
// W+Pad−kx); channel c's patch rows start at patch + c·PatchStride +
// kx·Plane + lo, OW apart, and its image rows at image + c·ImageStride +
// lo + kx − Pad, W apart; a tap with lo ≥ hi moves nothing. Each of the
// Rows rows moves hi − lo elements the way addRowsAVX2 walks a row:
// image into patch, or with add, patch added onto image (the image's
// element the first operand of each add); a width of exactly 8 takes one
// vector per row with no tail tests. The frame holds the channel count
// and the image base of the next channel.
TEXT ·tapsAVX2(SB), NOSPLIT, $16-25
	MOVQ geo+16(FP), SI
	XORQ R12, R12 // kx

tap:
	MOVQ    Taps_Pad(SI), AX
	SUBQ    R12, AX
	XORQ    BX, BX
	CMPQ    AX, $0
	CMOVQLT BX, AX // lo
	MOVQ    Taps_W(SI), BX
	ADDQ    Taps_Pad(SI), BX
	SUBQ    R12, BX
	MOVQ    Taps_OW(SI), DX
	CMPQ    BX, DX
	CMOVQGT DX, BX // hi
	SUBQ    AX, BX
	JLE     tapNext
	MOVQ    BX, R9 // width
	MOVQ    Taps_Plane(SI), R8
	IMULQ   R12, R8
	ADDQ    AX, R8
	MOVQ    patch+0(FP), DI
	LEAQ    (DI)(R8*4), DI // channel 0's patch row
	ADDQ    R12, AX
	SUBQ    Taps_Pad(SI), AX
	MOVQ    image+8(FP), R10
	LEAQ    (R10)(AX*4), R10
	MOVQ    R10, ibase-16(SP) // channel 0's image row
	MOVQ    R9, R11
	ANDQ    $-8, R11 // eight-lane part
	LEAQ    -4(R9), R13 // a four-lane step fits below this
	SHLQ    $2, DX // patch row stride in bytes
	MOVQ    Taps_W(SI), BX
	SHLQ    $2, BX // image row stride in bytes
	MOVQ    Taps_Channels(SI), AX
	MOVQ    AX, ch-8(SP)

channel:
	MOVQ DI, R8
	MOVQ ibase-16(SP), R10
	MOVQ Taps_Rows(SI), CX
	CMPQ R9, $8
	JNE  anyWidth
	CMPB add+24(FP), $0
	JNE  addRow8

copyRow8: // one eight-lane row per step: conv2's taps of the paper CNN
	VMOVUPS (R10), Y0
	VMOVUPS Y0, (R8)
	ADDQ    DX, R8
	ADDQ    BX, R10
	DECQ    CX
	JNE     copyRow8
	JMP     channelNext

addRow8:
	VMOVUPS (R10), Y0
	VADDPS  (R8), Y0, Y0
	VMOVUPS Y0, (R10)
	ADDQ    DX, R8
	ADDQ    BX, R10
	DECQ    CX
	JNE     addRow8
	JMP     channelNext

anyWidth:
	CMPB add+24(FP), $0
	JNE  addRow

copyRow:
	XORQ AX, AX
	CMPQ AX, R11
	JGE  copyTail4

copy8:
	VMOVUPS (R10)(AX*4), Y0
	VMOVUPS Y0, (R8)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R11
	JLT     copy8

copyTail4:
	CMPQ    AX, R13
	JGT     copyTail1
	VMOVUPS (R10)(AX*4), X0
	VMOVUPS X0, (R8)(AX*4)
	ADDQ    $4, AX

copyTail1:
	CMPQ   AX, R9
	JGE    copyNext
	VMOVSS (R10)(AX*4), X0
	VMOVSS X0, (R8)(AX*4)
	INCQ   AX
	JMP    copyTail1

copyNext:
	ADDQ DX, R8
	ADDQ BX, R10
	DECQ CX
	JNE  copyRow
	JMP  channelNext

addRow:
	XORQ AX, AX
	CMPQ AX, R11
	JGE  addTail4

add8:
	VMOVUPS (R10)(AX*4), Y0
	VADDPS  (R8)(AX*4), Y0, Y0
	VMOVUPS Y0, (R10)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R11
	JLT     add8

addTail4:
	CMPQ    AX, R13
	JGT     addTail1
	VMOVUPS (R10)(AX*4), X0
	VADDPS  (R8)(AX*4), X0, X0
	VMOVUPS X0, (R10)(AX*4)
	ADDQ    $4, AX

addTail1:
	CMPQ   AX, R9
	JGE    addNext
	VMOVSS (R10)(AX*4), X0
	VADDSS (R8)(AX*4), X0, X0
	VMOVSS X0, (R10)(AX*4)
	INCQ   AX
	JMP    addTail1

addNext:
	ADDQ DX, R8
	ADDQ BX, R10
	DECQ CX
	JNE  addRow

channelNext:
	MOVQ Taps_PatchStride(SI), AX
	LEAQ (DI)(AX*4), DI
	MOVQ Taps_ImageStride(SI), AX
	MOVQ ibase-16(SP), R10
	LEAQ (R10)(AX*4), R10
	MOVQ R10, ibase-16(SP)
	DECQ ch-8(SP)
	JNE  channel

tapNext:
	INCQ R12
	CMPQ R12, Taps_K(SI)
	JLT  tap
	VZEROUPPER
	RET
