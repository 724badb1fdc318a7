package tensor

import "math"

// Vector helpers operate on flat []float64 slices. Flattened parameter and
// gradient vectors are the currency of the FL aggregation layer, so these
// live here rather than on Tensor.

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

// FlushSubnormal32 is FlushSubnormal for float32 state, whose subnormals
// start far sooner: below 2⁻¹²⁶ ≈ 1.2e-38, reached from 1 after ≈ 830
// steps of a factor 0.9.
func FlushSubnormal32(x float32) float32 {
	if math.Float32bits(x)&(0xff<<23) == 0 {
		return 0
	}
	return x
}

// CosineSimilarityAt returns the cosine of the angle between a and b in
// [-1, 1], for the b given by its support: vals[j] at coordinate idx[j]
// (strictly ascending, each below a.Len()) and +0 at every other
// coordinate; a nil idx means b is vals itself. If either vector is
// (numerically) zero the similarity is defined as 0: a zero gradient
// carries no directional information, whatever its length, so with a nil
// idx a length mismatch panics only when both norms are nonzero.
//
// It reads a once and b off its support, without building either: the
// three sums run side by side (SupportSums), each in index order with
// Norm2's expression, so the result has the bits of two Norm2 passes and
// a dot-product pass over the dense vectors, whatever a holds, infinities
// and NaN off the support included.
func CosineSimilarityAt(a Delta, idx []int32, vals []float64) float64 {
	if idx == nil && a.Len() != len(vals) {
		if Norm2(vals) == 0 || a.Norm2() == 0 {
			return 0
		}
		panic("tensor: CosineSimilarityAt length mismatch")
	}
	return cosine(SupportSums(a, idx, vals))
}

// cosine finishes CosineSimilarityAt from its three sums.
func cosine(aa, bb, ab float64) float64 {
	na, nb := math.Sqrt(aa), math.Sqrt(bb)
	if na == 0 || nb == 0 {
		return 0
	}
	c := ab / (na * nb)
	// Clamp floating-point excursions so downstream [0,1] rescaling holds.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// SupportSums returns Σ a[i]², Σ b[i]² and Σ a[i]·b[i] over the a.Len()
// coordinates of a and of the b CosineSimilarityAt reads from idx and
// vals, each sum in index order with CosineSimilarityAt's expressions.
// Off the support b[i] is +0: its square adds +0, which leaves a sum of
// squares (never −0) as it is, and a finite a[i] times it adds ±0, which
// leaves a dot product that starts at +0 (never −0) as it is. So when Σ
// a[i]² is finite, the support alone gives the last two sums; otherwise
// every coordinate is visited, so that an infinite or NaN a[i] times +0
// makes the NaN the dense sums make, where they make it.
func SupportSums(a Delta, idx []int32, vals []float64) (aa, bb, ab float64) {
	n := a.Len()
	var buf [DeltaChunk]float64
	if idx == nil {
		b := vals[:n]
		for lo := 0; lo < n; {
			x := a.Chunk(buf[:], lo, n)
			for i, xi := range x {
				y := b[lo+i]
				aa += xi * xi
				bb += y * y
				ab += xi * y
			}
			lo += len(x)
		}
		return aa, bb, ab
	}
	// The support's two sums run beside Σ a[i]² (their chains are
	// independent, and there are never more of them than coordinates),
	// and are taken again below when it ends up infinite or NaN.
	vals = vals[:len(idx)]
	for lo := 0; lo < n; {
		x := a.Chunk(buf[:], lo, n)
		for i, xi := range x {
			aa += xi * xi
			if k := lo + i; k < len(idx) {
				y := vals[k]
				bb += y * y
				ab += a.at(int(idx[k])) * y
			}
		}
		lo += len(x)
	}
	if aa-aa == 0 {
		return aa, bb, ab
	}
	bb, ab = 0, 0
	at := 0
	var zero float64
	for j, i := range idx {
		for ; at < int(i); at++ {
			bb += zero * zero
			ab += a.at(at) * zero
		}
		x, y := a.at(int(i)), vals[j]
		bb += y * y
		ab += x * y
		at = int(i) + 1
	}
	for ; at < n; at++ {
		bb += zero * zero
		ab += a.at(at) * zero
	}
	return aa, bb, ab
}

// ScaledDistanceAt returns Σ (a[i]·sa − b[i]·sb)², each product rounded
// before the subtraction, in index order over every coordinate of a and of
// the b CosineSimilarityAt reads from idx and vals (+0 off the support).
func ScaledDistanceAt(a Delta, idx []int32, vals []float64, sa, sb float64) float64 {
	if idx == nil {
		vals = vals[:a.Len()]
	}
	sum, j := 0.0, 0
	for i := range a.Len() {
		var y float64 // +0 off the support
		if idx == nil {
			y = vals[i]
		} else if j < len(idx) && int(idx[j]) == i {
			y = vals[j]
			j++
		}
		d := float64(a.at(i)*sa) - float64(y*sb)
		sum += d * d
	}
	return sum
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
