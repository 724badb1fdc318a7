//go:build !arm64

package tensor

import "math"

// fma32 returns a·b+c rounded once to float32: the fused multiply-add the
// portable GEMM kernel chains, bit-equal to VFMADD231PS and to arm64's
// FMADD on single-precision operands. This is the emulation every
// architecture but arm64 runs; arm64 has the instruction (fma32_arm64.go).
//
// float32(math.FMA(a, b, c)) is not that: it rounds to float64 first and
// then to float32, and the first rounding can land exactly on a float32
// tie the exact value was not on (a = b = 1+2⁻¹², c = 2⁻⁶⁰ gives 1+2⁻¹¹
// instead of 1+2⁻¹¹+2⁻²³). So the sum is rounded to odd in float64 —
// to the float64 neighbour of the exact value whose last bit is 1 — which
// keeps the fact that it was inexact in a bit the second rounding reads;
// with 53 ≥ 2·24+2 significant bits that makes the rounding to float32
// exact.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b) // exact: 24+24 significant bits fit in 53
	cc := float64(c)
	s := p + cc
	// TwoSum: e is the rounding error of s, so p+cc = s+e exactly. It is
	// NaN when s is not finite, which fails both compares below.
	bp := s - p
	e := (p - (s - bp)) + (cc - bp)
	if bits := math.Float64bits(s); bits&1 == 0 && (e > 0 || e < 0) {
		// s is even and inexact: step one ulp towards the exact value,
		// onto its odd neighbour.
		if (e > 0) == (s > 0) {
			bits++
		} else {
			bits--
		}
		s = math.Float64frombits(bits)
	}
	return float32(s)
}
