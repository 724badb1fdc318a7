#include "textflag.h"

// Byte-plane decode kernel (planes_amd64.go). Baseline amd64 only:
// variable shifts take their count in CX, bit scans are BSR.

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
