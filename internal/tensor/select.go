package tensor

import "math"

// The two passes over n of compress's exact top-k select (DESIGN.md
// §"Exact top-k by bracketed select") and the two max passes of an
// update's check. A coordinate's magnitude key is bits(x) &^ sign: for a
// finite double that integer is monotone in |x|, so magnitudes compare as
// integers. Each pass is one function whose portable body is the scalar
// loop below it; at levelAVX2 and above the leading multiple of four (or
// eight) coordinates runs through an AVX2 kernel (compares, VMOVMSKPD,
// and a left-packing permute from compressPerm) and the rest through the
// loop. Every level writes the same keys, indices and values in the same
// order.

const (
	keySign = uint64(1) << 63
	keyExp  = uint64(0x7ff) << 52
)

// CompressSlack is how far past the last coordinate it selects
// CompressAbove's vector kernel may store: it stores whole vectors, and
// runs while idx and vals have this much room beyond what is written. A
// caller that sizes both at the selected count plus CompressSlack gets the
// whole pass at vector width; with less room the tail runs the scalar loop.
const CompressSlack = 16

// GatherKeys makes one pass over v. A coordinate's key is its magnitude
// key, or 0 for a NaN or ±Inf (a non-finite coordinate ranks as zero). It
// counts the keys that exceed hi, and writes the keys in [lo, hi], as
// float64 bits, to dst in coordinate order, counting them in n. It stops
// where a key in [lo, hi] finds dst full and returns ok false; otherwise
// it returns ok true with above and n over the whole of v. Past the keys
// written, dst's contents are clobbered.
func GatherKeys(dst, v []float64, lo, hi uint64) (above, n int, ok bool) {
	// Every key is below keyExp, so clamping hi under it changes no
	// compare, an empty bracket (lo > hi) is the same as [hi+1, hi], and
	// with both bounds under 2⁶³ the AVX2 kernel's signed compares see what
	// unsigned ones would.
	hi = min(hi, keyExp-1)
	lo = min(lo, hi+1)
	// A block may write a key for every coordinate it reads, so it reads
	// no more coordinates than dst has room for; the first block of a dst
	// as long as v is the whole pass. Once the room is down to a few
	// vectors, the rest is gathered a key at a time.
	for i := 0; i < len(v); {
		b := min(len(v)-i, len(dst)-n)
		if b < gatherMinBlock {
			return gatherTail(dst, v[i:], lo, hi, above, n)
		}
		a, m := gatherBlock(dst[n:n+b], v[i:i+b], lo, hi)
		above, n, i = above+a, n+m, i+b
	}
	return above, n, true
}

// gatherMinBlock is the room under which GatherKeys stops running blocks.
const gatherMinBlock = 64

// gatherBlock is GatherKeys over a dst as long as v, which no block can
// overrun.
func gatherBlock(dst, v []float64, lo, hi uint64) (above, n int) {
	i := 0
	if kernelLevel >= levelAVX2 && len(v) >= 4 {
		i = len(v) &^ 3
		above, n = gatherKeysAVX2(&dst[0], &v[0], i, lo, hi, &compressPerm[0])
	}
	// Where a key falls is as good as random, so the loop takes no branch
	// on it: it stores every key and advances past it when it is not below
	// lo. A second pass over what it kept — a few percent of v at the
	// ratios top-k runs at — counts the keys above hi and drops them.
	kept := n
	for _, x := range v[i:] {
		k := math.Float64bits(x) &^ keySign
		if k >= keyExp {
			k = 0
		}
		dst[kept] = math.Float64frombits(k)
		ge := 0
		if k >= lo {
			ge = 1
		}
		kept += ge
	}
	for _, x := range dst[n:kept] {
		dst[n] = x
		in := 0
		if math.Float64bits(x) <= hi {
			in = 1
		}
		n += in
	}
	above += kept - n
	return above, n
}

// gatherTail finishes GatherKeys a key at a time from above and n, storing
// only the keys in [lo, hi] and stopping at the first that finds dst full.
func gatherTail(dst, v []float64, lo, hi uint64, above, n int) (int, int, bool) {
	for _, x := range v {
		k := math.Float64bits(x) &^ keySign
		if k >= keyExp {
			k = 0
		}
		switch {
		case k > hi:
			above++
		case k >= lo:
			if n == len(dst) {
				return above, n, false
			}
			dst[n] = math.Float64frombits(k)
			n++
		}
	}
	return above, n, true
}

// CompressAbove makes one pass over v in coordinate order and takes every
// coordinate whose magnitude key exceeds thr, unless it is a NaN or ±Inf,
// and the first ties coordinates whose key equals thr: each taken
// coordinate's index goes to idx and its value to vals, and it returns how
// many it took. It panics if v has 2³¹ coordinates or more, or if idx or
// vals is too short for what it takes (see CompressSlack).
func CompressAbove(idx []int32, vals, v []float64, thr uint64, ties int) int {
	if len(v) > math.MaxInt32 {
		panic("tensor: CompressAbove over 2³¹ coordinates or more")
	}
	if thr > math.MaxInt64 {
		return 0 // no key reaches 2⁶³; the AVX2 kernel's compares are signed
	}
	room := min(len(idx), len(vals))
	i, n := 0, 0
	if kernelLevel >= levelAVX2 && len(v) >= 4 && room >= CompressSlack {
		i, n, ties = compressAboveAVX2(&idx[0], &vals[0], room, &v[0], len(v)&^3, thr, ties, &compressPerm[0])
	}
	for ; i < len(v); i++ {
		x := v[i]
		k := math.Float64bits(x) &^ keySign
		if k < thr {
			continue
		}
		if k == thr {
			if ties == 0 {
				continue
			}
			ties--
		} else if k >= keyExp {
			continue
		}
		idx[n] = int32(i)
		vals[n] = x
		n++
	}
	return n
}

// permEntry is one row of compressPerm: for a 4-bit lane mask m, q is the
// VPERMD control that moves the qwords m selects to the low lanes, in
// order (each qword as its two dwords), and d the VPERMILPS control that
// does the same for dwords. The pad makes a row 64 bytes, so a kernel
// finds row m at m<<6.
type permEntry struct {
	q [8]uint32
	d [4]uint32
	_ [4]uint32
}

var compressPerm = func() (t [16]permEntry) {
	for m := range t {
		j := 0
		for lane := uint32(0); lane < 4; lane++ {
			if m>>lane&1 != 0 {
				t[m].q[2*j], t[m].q[2*j+1] = 2*lane, 2*lane+1
				t[m].d[j] = lane
				j++
			}
		}
	}
	return t
}()

// MaxIndex returns the largest element of idx read as a uint32, or 0 for
// an empty idx: a negative index reads as 2³¹ or more, so one compare of
// the result against a dimension tells whether every index lies in
// [0, dim).
func MaxIndex(idx []int32) uint32 {
	var m uint32
	i := 0
	if kernelLevel >= levelAVX2 && len(idx) >= 8 {
		i = len(idx) &^ 7
		m = maxIndexAVX2(&idx[0], i)
	}
	for _, x := range idx[i:] {
		m = max(m, uint32(x))
	}
	return m
}

// MaxKey returns the largest magnitude key bits(x) &^ sign over v, or 0 for
// an empty v. Below 0x7ff<<52 it is the bits of max|x|; at or above it, v
// holds a NaN or ±Inf.
func MaxKey(v []float64) uint64 {
	var m uint64
	i := 0
	if kernelLevel >= levelAVX2 && len(v) >= 4 {
		i = len(v) &^ 3
		m = maxKeyAVX2(&v[0], i)
	}
	for _, x := range v[i:] {
		m = max(m, math.Float64bits(x)&^keySign)
	}
	return m
}
