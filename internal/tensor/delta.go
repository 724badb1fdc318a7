package tensor

import "math"

// Delta is a client's update as the kernels that read it see it: either a
// float64 vector, or the difference p − g of two float32 vectors (a
// model's trained parameters and the ones it started from), whose
// coordinate i is float64(p[i]) − float64(g[i]) — exact for two float32s
// within a factor 2²⁹ of each other (SubWiden). The second form is never
// built: a kernel that takes a Delta reads it a chunk at a time (Chunk)
// or a coordinate at a time (at), so one loop body serves both, and a
// wire client holds no float64 copy of what its two float32 vectors
// already say.
type Delta struct {
	v    []float64
	p, g []float32
}

// DeltaChunk is how many coordinates Chunk writes into its buffer at most:
// 8 KB of float64, which stays in L1 beside the two float32 runs it is
// read from.
const DeltaChunk = 1024

// DeltaOf returns the Delta that reads v.
func DeltaOf(v []float64) Delta { return Delta{v: v} }

// DeltaOf32 returns the Delta that reads p − g, both widened to float64
// first. It panics unless the two have one length.
func DeltaOf32(p, g []float32) Delta {
	if len(p) != len(g) {
		panic("tensor: DeltaOf32 length mismatch")
	}
	return Delta{p: p, g: g}
}

// Len returns the number of coordinates.
func (d Delta) Len() int {
	if d.p != nil {
		return len(d.p)
	}
	return len(d.v)
}

// at returns coordinate i.
func (d Delta) at(i int) float64 {
	if d.p != nil {
		return float64(d.p[i]) - float64(d.g[i])
	}
	return d.v[i]
}

// Chunk returns coordinates lo, lo+1, … below hi, at most len(buf) of
// them: a float64 vector's as a subslice of it, a float32 pair's written
// into buf. A loop over [lo, hi) advances lo by the length returned until
// it reaches hi.
func (d Delta) Chunk(buf []float64, lo, hi int) []float64 {
	hi = min(hi, lo+len(buf))
	if d.p == nil {
		return d.v[lo:hi]
	}
	buf = buf[:hi-lo]
	SubWiden(buf, d.p[lo:hi], d.g[lo:hi])
	return buf
}

// Fill writes the Delta's coordinates into dst, reallocated when it is
// shorter than Len, and returns it at length Len. It is for a consumer
// that needs the whole update at once.
func (d Delta) Fill(dst []float64) []float64 {
	n := d.Len()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if d.p == nil {
		copy(dst, d.v)
	} else {
		SubWiden(dst, d.p, d.g)
	}
	return dst
}

// Norm2 returns the Euclidean norm of the Delta, with the bits Norm2 gives
// on its coordinates: Σ x² in index order is SupportSums' first sum.
func (d Delta) Norm2() float64 {
	aa, _, _ := SupportSums(d, []int32{}, nil)
	return math.Sqrt(aa)
}
