#include "textflag.h"

// Byte-plane kernels (planes_amd64.go). Baseline amd64 only: variable
// shifts take their count in CX, bit scans are BSR.

// REFILL tops the stream with bits ACC and next bytes at SRC up to 56 or
// more bits below its sentinel: ACC holds the unconsumed bits under a
// sentinel bit at n. The next word goes in above them, the source moves
// on by the whole bytes that fitted, and the sentinel goes to n|56, the
// bits above it cleared.
#define REFILL(ACC, SRC) \
	BSRQ ACC, CX; \
	MOVQ SRC, BX; \
	MOVQ (BX), AX; \
	BTRQ CX, ACC; \
	SHLQ CX, AX; \
	ORQ  AX, ACC; \
	MOVL CX, DX; \
	XORL $63, CX; \
	SHRL $3, CX; \
	ADDQ CX, BX; \
	MOVQ BX, SRC; \
	ORL  $56, DX; \
	XORL $63, DX; \
	MOVL DX, CX; \
	SHLQ CX, ACC; \
	BTSQ $63, ACC; \
	SHRQ CX, ACC

// SYM looks the next code of stream ACC up in table TAB: CX gets the entry,
// symbol<<8 | length, and ACC loses the code's bits.
#define SYM(ACC, TAB) \
	MOVL    ACC, AX; \
	ANDL    $2047, AX; \
	MOVWLZX TAB(SI)(AX*2), CX; \
	SHRQ    CX, ACC

// VALUE decodes one value's four symbols into the float32 bits in DX and
// stores them widened at DI.
#define VALUE \
	SYM(R8, 0); \
	SHRL $8, CX; \
	MOVL CX, DX; \
	SYM(R9, 4096); \
	ANDL $0xff00, CX; \
	ORL  CX, DX; \
	SYM(R10, 8192); \
	ANDL $0xff00, CX; \
	SHLL $8, CX; \
	ORL  CX, DX; \
	SYM(R11, 12288); \
	SHRL $8, CX; \
	SHLL $24, CX; \
	ORL  CX, DX; \
	MOVQ DX, X0; \
	CVTSS2SD X0, X0; \
	MOVSD X0, (DI); \
	ADDQ $8, DI

// func decodePlanesAMD64(vals *float64, groups int, tabs *[4][2048]uint16, st *[4]planeState)
TEXT ·decodePlanesAMD64(SB), NOSPLIT, $0-32
	MOVQ vals+0(FP), DI
	MOVQ groups+8(FP), R12
	MOVQ tabs+16(FP), SI
	MOVQ st+24(FP), R13
	MOVQ 0(R13), R8
	MOVQ 16(R13), R9
	MOVQ 32(R13), R10
	MOVQ 48(R13), R11
	TESTQ R12, R12
	JLE  done

loop:
	REFILL(R8, 8(R13))
	REFILL(R9, 24(R13))
	REFILL(R10, 40(R13))
	REFILL(R11, 56(R13))
	VALUE
	VALUE
	VALUE
	VALUE
	VALUE
	DECQ R12
	JNZ  loop

done:
	MOVQ R8, 0(R13)
	MOVQ R9, 16(R13)
	MOVQ R10, 32(R13)
	MOVQ R11, 48(R13)
	RET

// CODE appends the code of byte SHIFT/8 of the float32 of the value at SI
// to the DX bits held below bit CX; its table entry is code<<8 | length.
#define CODE(SHIFT) \
	MOVSD    (SI), X0; \
	CVTSD2SS X0, X0; \
	MOVQ     X0, AX; \
	SHRL     $SHIFT, AX; \
	MOVBLZX  AX, AX; \
	MOVL     (R8)(AX*4), AX; \
	MOVL     AX, BX; \
	SHRL     $8, BX; \
	SHLQ     CX, BX; \
	ORQ      BX, DX; \
	MOVBLZX  AX, AX; \
	ADDL     AX, CX; \
	ADDQ     $8, SI

// GROUP codes four values, at most 44 bits over the fewer than 8 held,
// and stores the word: its whole bytes stay, the rest stays held.
#define GROUP(SHIFT) \
	CODE(SHIFT); \
	CODE(SHIFT); \
	CODE(SHIFT); \
	CODE(SHIFT); \
	MOVQ DX, (DI); \
	MOVL CX, AX; \
	SHRL $3, AX; \
	ADDQ AX, DI; \
	MOVL CX, BX; \
	ANDL $7, BX; \
	ANDL $56, CX; \
	SHRQ CX, DX; \
	MOVL BX, CX

// func codePlaneAMD64(dst *byte, vals *float64, n int, code *[256]uint32, shift uint, acc uint64, bits uint) (wrote int, accOut uint64, bitsOut uint)
TEXT ·codePlaneAMD64(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ vals+8(FP), SI
	MOVQ n+16(FP), R9
	MOVQ code+24(FP), R8
	MOVQ shift+32(FP), R10
	MOVQ acc+40(FP), DX
	MOVQ bits+48(FP), CX
	MOVQ DI, R11
	SHRQ $2, R9
	JZ   out
	CMPQ R10, $8
	JEQ  plane1
	CMPQ R10, $16
	JEQ  plane2
	CMPQ R10, $24
	JEQ  plane3

plane0:
	GROUP(0)
	DECQ R9
	JNZ  plane0
	JMP  out

plane1:
	GROUP(8)
	DECQ R9
	JNZ  plane1
	JMP  out

plane2:
	GROUP(16)
	DECQ R9
	JNZ  plane2
	JMP  out

plane3:
	GROUP(24)
	DECQ R9
	JNZ  plane3

out:
	SUBQ R11, DI
	MOVQ DI, wrote+56(FP)
	MOVQ DX, accOut+64(FP)
	MOVQ CX, bitsOut+72(FP)
	RET
