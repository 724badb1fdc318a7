package tensor

import "adafl/internal/stats"

// fillPairs is the most pairs NormFill hands the kernel at once: its words
// are 8 KiB on the stack.
const fillPairs = 512

// NormFill writes to dst the normals len(dst) calls of r.Norm would
// return, bit for bit, and leaves r where those calls would, its cached
// spare included: one taken in is dst[0], and an odd last pair leaves its
// sine cached. At levelAVX2 and above the pairs go through the vector
// Box-Muller kernel four at a time; a zero u, which Norm draws again, and
// the last pairs go through Norm.
func NormFill(dst []float64, r *stats.RNG) {
	if kernelLevel >= levelAVX2 {
		if len(dst) > 0 && r.HasSpare() {
			dst[0] = r.Norm()
			dst = dst[1:]
		}
		var w [2 * fillPairs]uint64
		for len(dst) >= 8 {
			n := min(len(dst)/2, fillPairs) &^ 3
			r.Peek(w[:2*n])
			done := normPairsAVX2(&dst[0], &w[0], n)
			r.Skip(uint64(2 * done))
			dst = dst[2*done:]
			if done < n {
				// A zero u in the next four pairs: Norm redraws it.
				dst[0], dst[1] = r.Norm(), r.Norm()
				dst = dst[2:]
			}
		}
	}
	for i := range dst {
		dst[i] = r.Norm()
	}
}
