// AVX2 Box-Muller kernel for rand.go's NormFill. Each step turns four
// pairs of words into eight normals, doing lane by lane what
// stats.normPair does (math/log_amd64.s's archLog, then math/sincos.go)
// in the same order, each operation rounded on its own: no FMA. Every
// instruction that touches a vector register is VEX encoded.

#include "textflag.h"

// Offsets into normConst, one 32-byte row of four equal words each, so
// that every constant is a full-width memory operand.
#define MANT 0
#define HALF 32
#define LO32 64
#define MAGIC52 96
#define MAGIC84 128
#define MAGIC8452 160
#define KBIAS 192
#define HSQRT2 224
#define ONE 256
#define TWO 288
#define L1 320
#define L2 352
#define L3 384
#define L4 416
#define L5 448
#define L6 480
#define L7 512
#define LN2HI 544
#define LN2LO 576
#define MINUS2 608
#define TWOPI53 640
#define FOUROVERPI 672
#define PI4A 704
#define PI4B 736
#define PI4C 768
#define SIGN 800
#define ONES32 832
#define COS0 864
#define COS1 896
#define COS2 928
#define COS3 960
#define COS4 992
#define COS5 1024
#define SIN0 1056
#define SIN1 1088
#define SIN2 1120
#define SIN3 1152
#define SIN4 1184
#define SIN5 1216

#define ROW(off, bits) DATA normConst<>+(off)(SB)/8, $bits; DATA normConst<>+(off+8)(SB)/8, $bits; DATA normConst<>+(off+16)(SB)/8, $bits; DATA normConst<>+(off+24)(SB)/8, $bits

ROW(MANT, 0x000fffffffffffff)       // mantissa bits
ROW(HALF, 0x3fe0000000000000)       // 0.5, and the exponent bits of [0.5, 1)
ROW(LO32, 0x00000000ffffffff)       // a word's low half
ROW(MAGIC52, 0x4330000000000000)    // 2⁵², whose ulp is 1
ROW(MAGIC84, 0x4530000000000000)    // 2⁸⁴, whose ulp is 2³²
ROW(MAGIC8452, 0x4530000000100000)  // 2⁸⁴ + 2⁵²
ROW(KBIAS, 0x4330000000000433)      // 2⁵² + 1075: k = e − 1022 − 53
ROW(HSQRT2, 0x3fe6a09e667f3bcd)     // √2/2
ROW(ONE, 0x3ff0000000000000)        // 1
ROW(TWO, 0x4000000000000000)        // 2
ROW(L1, 0x3fe5555555555593)         // archLog's L1 … L7
ROW(L2, 0x3fd999999997fa04)
ROW(L3, 0x3fd2492494229359)
ROW(L4, 0x3fcc71c51d8e78af)
ROW(L5, 0x3fc7466496cb03de)
ROW(L6, 0x3fc39a09d078c69f)
ROW(L7, 0x3fc2f112df3e5244)
ROW(LN2HI, 0x3fe62e42fee00000)      // Ln2Hi
ROW(LN2LO, 0x3dea39ef35793c76)      // Ln2Lo
ROW(MINUS2, 0xc000000000000000)     // −2
ROW(TWOPI53, 0x3cc921fb54442d18)    // float64(2π)·2⁻⁵³
ROW(FOUROVERPI, 0x3ff45f306dc9c883) // 4/π
ROW(PI4A, 0x3fe921fb40000000)       // π/4 in three parts
ROW(PI4B, 0x3e64442d00000000)
ROW(PI4C, 0x3ce8469898cc5170)
ROW(SIGN, 0x8000000000000000)       // the sign bit
ROW(ONES32, 0x0000000100000001)     // int32 1s
ROW(COS0, 0xbda8fa49a0861a9b)       // math/sin.go's _cos
ROW(COS1, 0x3e21ee9d7b4e3f05)
ROW(COS2, 0xbe927e4f7eac4bc6)
ROW(COS3, 0x3efa01a019c844f5)
ROW(COS4, 0xbf56c16c16c14f91)
ROW(COS5, 0x3fa555555555554b)
ROW(SIN0, 0x3de5d8fd1fd19ccd)       // and _sin
ROW(SIN1, 0xbe5ae5e5a9291f5d)
ROW(SIN2, 0x3ec71de3567d48a1)
ROW(SIN3, 0xbf2a01a019bfdf03)
ROW(SIN4, 0x3f8111111110f7d0)
ROW(SIN5, 0xbfc5555555555548)
GLOBL normConst<>(SB), RODATA|NOPTR, $1248

#define K(off) normConst<>+(off)(SB)

// Exact float64 of a 53-bit integer in a lane, by halves: (2⁸⁴ + hi·2³²)
// − (2⁸⁴ + 2⁵²) + (2⁵² + lo). Every step is exact.
#define TOFLOAT(m, t) \
	VPAND  K(LO32), m, t;      \
	VPOR   K(MAGIC52), t, t;   \
	VPSRLQ $32, m, m;          \
	VPOR   K(MAGIC84), m, m;   \
	VSUBPD K(MAGIC8452), m, m; \
	VADDPD t, m, m

// func normPairsAVX2(dst *float64, w *uint64, n int) int
//
// For pairs p = 0, 1, …, n−1 (n > 0, a multiple of 4) of words u = w[2p]
// and v = w[2p+1], dst[2p] = √(−2 ln u)·cos 2πv and dst[2p+1] =
// √(−2 ln u)·sin 2πv, where a word stands for its top 53 bits times
// 2⁻⁵³. It stops before the first group of four pairs that holds a zero
// u and returns how many pairs it wrote.
TEXT ·normPairsAVX2(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  w+8(FP), SI
	MOVQ  n+16(FP), CX
	VPXOR Y15, Y15, Y15
	XORQ  AX, AX

loop:
	// Lanes hold pairs 0, 2, 1, 3 of the step, u words in Y2, v in Y3.
	VMOVDQU     (SI), Y0
	VMOVDQU     32(SI), Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPUNPCKHQDQ Y1, Y0, Y3
	VPSRLQ      $11, Y2, Y2
	VPCMPEQQ    Y15, Y2, Y4
	VPTEST      Y4, Y4
	JNE         done             // a zero u: the caller redraws it
	VPSRLQ      $11, Y3, Y3
	TOFLOAT(Y2, Y4)              // u·2⁵³
	TOFLOAT(Y3, Y4)              // v·2⁵³

	// ln u, as archLog: f1 and k from u's bits, then its series.
	VPAND   K(MANT), Y2, Y4
	VPOR    K(HALF), Y4, Y4      // f1
	VPSRLQ  $52, Y2, Y5
	VPOR    K(MAGIC52), Y5, Y5
	VSUBPD  K(KBIAS), Y5, Y5     // k
	VCMPPD  $2, K(HSQRT2), Y4, Y6 // f1 ≤ √2/2
	VANDPD  K(ONE), Y6, Y6
	VSUBPD  Y6, Y5, Y5           // k −= 1 there
	VADDPD  K(ONE), Y6, Y6
	VMULPD  Y6, Y4, Y4           // f1 ·= 2 there
	VSUBPD  K(ONE), Y4, Y4       // f = f1 − 1
	VADDPD  K(TWO), Y4, Y6
	VDIVPD  Y6, Y4, Y6           // s = f / (2 + f)
	VMULPD  Y6, Y6, Y7           // s2
	VMULPD  Y7, Y7, Y8           // s4
	VMULPD  K(L7), Y8, Y9
	VADDPD  K(L5), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  K(L3), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  K(L1), Y9, Y9
	VMULPD  Y9, Y7, Y7           // t1
	VMULPD  K(L6), Y8, Y9
	VADDPD  K(L4), Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  K(L2), Y9, Y9
	VMULPD  Y9, Y8, Y8           // t2
	VADDPD  Y8, Y7, Y7           // R
	VMULPD  K(HALF), Y4, Y8
	VMULPD  Y4, Y8, Y8           // hfsq = 0.5·f·f
	VADDPD  Y8, Y7, Y7
	VMULPD  Y7, Y6, Y6           // s·(hfsq + R)
	VMULPD  K(LN2LO), Y5, Y7
	VADDPD  Y7, Y6, Y6           // + k·Ln2Lo
	VSUBPD  Y6, Y8, Y8
	VSUBPD  Y4, Y8, Y8           // (hfsq − …) − f
	VMULPD  K(LN2HI), Y5, Y5
	VSUBPD  Y8, Y5, Y5           // ln u = k·Ln2Hi − …
	VMULPD  K(MINUS2), Y5, Y5
	VSQRTPD Y5, Y14              // mag

	// sin and cos of x = 2π·v, as sincos.go; x is +0 or positive and
	// below 2π, and x = +0 takes the series to (+0, 1).
	VMULPD      K(TWOPI53), Y3, Y3
	VMULPD      K(FOUROVERPI), Y3, Y4
	VCVTTPD2DQY Y4, X4
	VPAND       K(ONES32), X4, X5
	VPADDD      X5, X4, X4       // j, odd j rounded up
	VCVTDQ2PD   X4, Y5           // y
	VPMOVZXDQ   X4, Y4
	VMULPD      K(PI4A), Y5, Y6
	VSUBPD      Y6, Y3, Y3
	VMULPD      K(PI4B), Y5, Y6
	VSUBPD      Y6, Y3, Y3
	VMULPD      K(PI4C), Y5, Y6
	VSUBPD      Y6, Y3, Y3       // z
	VMULPD      Y3, Y3, Y5       // zz
	VMULPD      K(COS0), Y5, Y6
	VADDPD      K(COS1), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(COS2), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(COS3), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(COS4), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(COS5), Y6, Y6
	VMULPD      Y5, Y5, Y7
	VMULPD      Y6, Y7, Y7
	VMULPD      K(HALF), Y5, Y6
	VMOVUPD     K(ONE), Y8
	VSUBPD      Y6, Y8, Y8
	VADDPD      Y7, Y8, Y8       // cos = 1 − 0.5·zz + zz·zz·(…)
	VMULPD      K(SIN0), Y5, Y6
	VADDPD      K(SIN1), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(SIN2), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(SIN3), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(SIN4), Y6, Y6
	VMULPD      Y5, Y6, Y6
	VADDPD      K(SIN5), Y6, Y6
	VMULPD      Y5, Y3, Y7
	VMULPD      Y6, Y7, Y7
	VADDPD      Y7, Y3, Y3       // sin = z + z·zz·(…)

	// j's bit 1 swaps sin and cos and flips cos; bit 2 flips both.
	VPSLLQ    $62, Y4, Y5
	VPSLLQ    $61, Y4, Y4
	VBLENDVPD Y5, Y8, Y3, Y6     // sin
	VBLENDVPD Y5, Y3, Y8, Y7     // cos
	VXORPD    Y4, Y5, Y5
	VANDPD    K(SIGN), Y5, Y5
	VXORPD    Y5, Y7, Y7
	VANDPD    K(SIGN), Y4, Y4
	VXORPD    Y4, Y6, Y6
	VMULPD    Y14, Y7, Y7        // mag·cos
	VMULPD    Y14, Y6, Y6        // mag·sin

	// Back to pair order, cos before sin.
	VUNPCKLPD Y6, Y7, Y0
	VUNPCKHPD Y6, Y7, Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       loop

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
