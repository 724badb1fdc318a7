package tensor

import "math"

// Vector helpers operate on flat []float64 slices. Flattened parameter and
// gradient vectors are the currency of the FL aggregation layer, so these
// live here rather than on Tensor.

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	sum := 0.0
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// IsZero reports whether every element of v is ±0, returning at the first
// one that is not (a NaN is not zero). It replaces Norm2(v) == 0 as the
// "is this vector all zero" test, which read the whole vector to answer and
// answered differently for one case: a vector whose every |x| is below
// ~1e-162 has squares that underflow, so its norm read as 0; IsZero says it
// is not zero.
func IsZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// FlushSubnormal returns x, or 0 when x is subnormal (or already ±0): its
// exponent bits are all zero. State that is multiplied by a factor below 1
// every step with no fresh input — a momentum whose gradient went to
// exactly 0 — decays into the subnormal range and stays there for hundreds
// of steps, and arithmetic on subnormals takes a microcode assist, tens of
// times the normal cost per element. The integer test costs less than a
// float compare pair.
func FlushSubnormal(x float64) float64 {
	if math.Float64bits(x)&(0x7ff<<52) == 0 {
		return 0
	}
	return x
}

// CosineSimilarity returns the cosine of the angle between a and b in
// [-1, 1]. If either vector is (numerically) zero the similarity is defined
// as 0: a zero gradient carries no directional information.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Clamp floating-point excursions so downstream [0,1] rescaling holds.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// EuclideanDistance returns ‖a-b‖₂.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: EuclideanDistance length mismatch")
	}
	sum := 0.0
	for i, v := range a {
		d := v - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies v by s in place.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// SubVec computes dst = a - b, writing into dst (which may alias a or b).
func SubVec(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("tensor: SubVec length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// CopyVec returns a fresh copy of v.
func CopyVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
