package tensor

import (
	"encoding/binary"
	"math"
)

// Elementwise kernels: the passes of a client step outside the GEMM. Each
// is one function whose portable body is the scalar loop below it; where
// detectSIMD confirms AVX2 the same function runs the leading multiple of
// eight elements through an assembly kernel (elem_amd64.s) and the rest
// through that loop. The kernels compute what the loop computes, bit for
// bit: the loop's operations in its order, each rounded on its own, with
// no fused multiply-add (the explicit float32 conversions forbid the
// compiler one, so no architecture contracts the loop either).

// simdLen returns how many leading elements of an n-element pass the
// vector kernel takes: the multiple of eight at or below n when it runs,
// else none.
func simdLen(n int) int {
	if simdEnabled {
		return n &^ 7
	}
	return 0
}

// SGDMomentum applies one momentum step to a parameter tensor p with
// velocity v and gradient g: v = flush(mom·v + g); p −= lr·v, where flush
// is FlushSubnormal32. It panics unless p, v and g have one length.
func SGDMomentum(p, v, g []float32, lr, mom float32) {
	if len(p) != len(g) || len(v) != len(g) {
		panic("tensor: SGDMomentum length mismatch")
	}
	p, v = p[:len(g)], v[:len(g)]
	if k := simdLen(len(g)); k > 0 {
		sgdMomentumAVX2(&p[0], &v[0], &g[0], k, lr, mom)
		p, v, g = p[k:], v[k:], g[k:]
	}
	for i, x := range g {
		x = FlushSubnormal32(float32(mom*v[i]) + x)
		v[i] = x
		p[i] -= float32(lr * x)
	}
}

// ReLU writes max(0, x) of src into dst as the compare x ≤ 0 selects it:
// +0 for every x ≤ 0 (−0 included), x itself otherwise (NaN included).
// dst may be src. It panics unless the two have one length.
func ReLU(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: ReLU length mismatch")
	}
	dst = dst[:len(src)]
	if k := simdLen(len(src)); k > 0 {
		reluAVX2(&dst[0], &src[0], k)
		dst, src = dst[k:], src[k:]
	}
	for i, x := range src {
		if x <= 0 {
			x = 0
		}
		dst[i] = x
	}
}

// ReLUBackward writes the gradient of a ReLU's input into dx from the
// layer's output y and the gradient g of that output: 0 where y ≤ 0, g
// elsewhere. y is ReLU's result, so y ≤ 0 exactly where the input was
// ≤ 0 and y > 0 or NaN exactly where it passed. dx may be g. It panics
// unless dx, y and g have one length.
func ReLUBackward(dx, y, g []float32) {
	if len(dx) != len(g) || len(y) != len(g) {
		panic("tensor: ReLUBackward length mismatch")
	}
	dx, y = dx[:len(g)], y[:len(g)]
	if k := simdLen(len(g)); k > 0 {
		reluBackwardAVX2(&dx[0], &y[0], &g[0], k)
		dx, y, g = dx[k:], y[k:], g[k:]
	}
	for i, x := range g {
		if y[i] <= 0 {
			x = 0
		}
		dx[i] = x
	}
}

// Narrow rounds each element of src to the nearest float32 into dst. It
// panics unless the two have one length.
func Narrow(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Narrow length mismatch")
	}
	dst = dst[:len(src)]
	if k := simdLen(len(src)); k > 0 {
		narrowAVX2(&dst[0], &src[0], k)
		dst, src = dst[k:], src[k:]
	}
	for i, x := range src {
		dst[i] = float32(x)
	}
}

// Widen converts each element of src to float64 (exactly) into dst. It
// panics unless the two have one length.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Widen length mismatch")
	}
	dst = dst[:len(src)]
	if k := simdLen(len(src)); k > 0 {
		widenAVX2(&dst[0], &src[0], k)
		dst, src = dst[k:], src[k:]
	}
	for i, x := range src {
		dst[i] = float64(x)
	}
}

// SubNarrowed writes p − start into dst with start taken at float32
// precision: float64(p[i]) − float64(float32(start[i])). It panics unless
// dst, p and start have one length.
func SubNarrowed(dst []float64, p []float32, start []float64) {
	if len(dst) != len(p) || len(start) != len(p) {
		panic("tensor: SubNarrowed length mismatch")
	}
	dst, start = dst[:len(p)], start[:len(p)]
	if k := simdLen(len(p)); k > 0 {
		subNarrowedAVX2(&dst[0], &p[0], &start[0], k)
		dst, p, start = dst[k:], p[k:], start[k:]
	}
	for i, x := range p {
		dst[i] = float64(x) - float64(float32(start[i]))
	}
}

// NarrowLE writes each element of src rounded to float32 into dst as four
// little-endian bytes. It panics if dst holds fewer than 4·len(src).
func NarrowLE(dst []byte, src []float64) {
	if len(dst) < 4*len(src) {
		panic("tensor: NarrowLE destination too short")
	}
	dst = dst[:4*len(src)]
	if k := simdLen(len(src)); k > 0 {
		narrowBytesAVX2(&dst[0], &src[0], k)
		dst, src = dst[4*k:], src[k:]
	}
	for i, x := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
	}
}

// WidenLE reads len(dst) little-endian float32s from src, widened to
// float64, into dst. src need not be aligned; it panics if src holds
// fewer than 4·len(dst) bytes.
func WidenLE(dst []float64, src []byte) {
	if len(src) < 4*len(dst) {
		panic("tensor: WidenLE source too short")
	}
	src = src[:4*len(dst)]
	if k := simdLen(len(dst)); k > 0 {
		widenBytesAVX2(&dst[0], &src[0], k)
		dst, src = dst[k:], src[4*k:]
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}
