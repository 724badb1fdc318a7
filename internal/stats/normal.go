package stats

import "math"

// The Box-Muller transform, owned here so that a normal has one
// definition on every architecture: amd64's. math.Log on amd64 is the
// assembly archLog (math/log_amd64.s) and math.Sincos is sincos.go
// compiled without fused multiply-adds; on arm64 the compiler fuses them
// (ten multiply-adds in math.log, sixteen in Sincos) and the bits move.
// ln and Sincos below repeat those two operation by operation, in their
// order, and round every product with an explicit float64(…), which no
// compiler may fuse away. make lint disassembles them for arm64 and fails
// on a fused multiply-add.

// normPair is the Box-Muller pair of the words wu and wv:
// √(−2 ln u)·cos 2πv and √(−2 ln u)·sin 2πv, with u = (wu>>11)·2⁻⁵³ and
// v = (wv>>11)·2⁻⁵³, the Float64 of each word. u must not be 0.
func normPair(wu, wv uint64) (c, s float64) {
	u := float64(wu>>11) / (1 << 53)
	v := float64(wv>>11) / (1 << 53)
	mag := math.Sqrt(-2 * ln(u))
	sin, cos := Sincos(2 * math.Pi * v)
	return float64(mag * cos), float64(mag * sin)
}

// ln is math.Log as math/log_amd64.s computes it, for a positive normal
// x below +Inf (none of its special cases).
func ln(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // √2/2
		ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1     = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3     = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	// f1, k := math.Frexp(x), by the bits.
	b := math.Float64bits(x)
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3fe0000000000000)
	k := float64(int(b>>52&0x7ff) - 0x3fe)
	// archLog branches on f1 ≤ √2/2 (CMPSD's not-less-than), where
	// log.go has <; either gives these bits at f1 = √2/2.
	if f1 <= hSqrt2 {
		k--
		f1 *= 2
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (float64(s4*(float64(s4*(float64(s4*l7)+l5))+l3)) + l1))
	t2 := float64(s4 * (float64(s4*(float64(s4*l6)+l4)) + l2))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// Sincos is math.Sincos (math/sincos.go) for finite |x| < 2²⁹, where it
// needs no Payne-Hanek reduction, with the bits amd64 computes on every
// architecture. On amd64 it equals math.Sin and math.Cos bit for bit
// (normal_test.go).
func Sincos(x float64) (sin, cos float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 in three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
	)
	if x == 0 {
		return x, 1
	}
	sinSign, cosSign := false, false
	if x < 0 {
		x = -x
		sinSign = true
	}
	j := uint64(x * (4 / math.Pi)) // the octant
	y := float64(j)
	if j&1 == 1 { // map zeros to origin
		j++
		y++
	}
	j &= 7
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	if j > 3 {
		j -= 4
		sinSign, cosSign = !sinSign, !cosSign
	}
	if j > 1 {
		cosSign = !cosSign
	}
	zz := float64(z * z)
	cos = (1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*poly(&cosCoef, zz))
	sin = z + float64(float64(z*zz)*poly(&sinCoef, zz))
	if j == 1 || j == 2 {
		sin, cos = cos, sin
	}
	if cosSign {
		cos = -cos
	}
	if sinSign {
		sin = -sin
	}
	return sin, cos
}

// The coefficients of math/sin.go's _sin and _cos.
var (
	sinCoef = [6]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = [6]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// poly is sincos.go's (((((c₀·zz + c₁)·zz + c₂)·zz + c₃)·zz + c₄)·zz + c₅.
func poly(c *[6]float64, zz float64) float64 {
	p := float64(float64(float64(float64(float64(c[0]*zz)+c[1])*zz)+c[2])*zz) + c[3]
	return float64(float64(float64(p*zz)+c[4])*zz) + c[5]
}
