package tensor

// normPairsAVX2 is the Box-Muller kernel in rand_amd64.s: n pairs of words
// w (n > 0, a multiple of 4) to 2n normals in dst, as stats.RNG.Norm
// computes them, stopping before the first group of four pairs that holds
// a zero u. It returns the pairs it wrote.
//
//go:noescape
func normPairsAVX2(dst *float64, w *uint64, n int) int
