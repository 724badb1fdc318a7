package compress

import (
	"math"

	"adafl/internal/tensor"
)

const (
	signMask = uint64(1) << 63
	expMask  = uint64(0x7ff) << 52

	// selectBits is how many leading bits of the 63-bit magnitude index the
	// selection histogram: the 11 exponent bits and the top 3 of the
	// mantissa, so a bucket is an eighth of a binade. 2¹⁴ uint32 counters
	// are 64 KB of stack.
	selectBits  = 14
	selectShift = 63 - selectBits
)

// finite reports whether x is neither NaN nor ±Inf: its exponent field is
// not all ones. The selection path treats non-finite coordinates as zero
// magnitude: a NaN compares false against everything and has no rank, and
// a ±Inf would pass every threshold and be transmitted verbatim, poisoning
// the server-side aggregate.
func finite(x float64) bool {
	return math.Float64bits(x)&expMask != expMask
}

// selectThreshold returns the k-th largest magnitude in v, as its bits, and
// how many coordinates lie strictly above it. A magnitude is handled as the
// integer bits(x) &^ signMask throughout: the IEEE-754 bits of a
// non-negative finite double are monotone in its value. The select is
// exact: one pass counts the coordinates into a histogram over the leading
// selectBits of that integer, a walk down from the top bucket finds the
// one holding rank k, and only that bucket's members are gathered into
// scratch and quickselected. k must be in [1, len(v)) and scratch must
// hold len(v) (the whole vector can share one bucket); its contents are
// clobbered.
func selectThreshold(v []float64, k int, scratch []float64) (thr uint64, above int) {
	var hist [1 << selectBits]uint32
	for _, x := range v {
		hist[(math.Float64bits(x)&^signMask)>>selectShift]++
	}
	// Non-finite coordinates landed in the buckets from expMask up; they
	// rank as zeros, so their counts move to bucket 0.
	for b := expMask >> selectShift; b < uint64(len(hist)); b++ {
		hist[0] += hist[b]
		hist[b] = 0
	}
	bucket, rank := uint64(len(hist)-1), k
	for int(hist[bucket]) < rank {
		rank -= int(hist[bucket])
		bucket--
	}
	above = k - rank
	// The threshold is the rank-th largest of the bucket's members. Bucket
	// 0's count includes the non-finite coordinates, which the gather does
	// not match: the slots it leaves unfilled are their zeros.
	members := scratch[:hist[bucket]]
	m := 0
	for _, x := range v {
		if b := math.Float64bits(x) &^ signMask; b>>selectShift == bucket {
			members[m] = math.Float64frombits(b)
			m++
		}
	}
	clear(members[m:])
	t := quickselect(members, len(members)-rank)
	for _, a := range members {
		if a > t {
			above++
		}
	}
	return math.Float64bits(t), above
}

// quickselect returns the element of rank target (ascending, 0-based) of
// a, reordering a (iterative Hoare partition, O(len(a)) expected). a must
// hold no NaN.
func quickselect(a []float64, target int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			break
		}
	}
	return a[target]
}

// SelectTopK builds a sparse message from the k largest-magnitude
// coordinates of v. Ties at the threshold are resolved by coordinate order
// and the result is truncated to exactly k entries; non-finite coordinates
// rank as zero magnitude and are never transmitted. The selection scratch
// is borrowed from the shared tensor pool; stateful codecs that encode
// every round should prefer SelectTopKScratch with their own buffer.
func SelectTopK(v []float64, k int) *Sparse {
	if k <= 0 {
		panic("compress: non-positive k")
	}
	if k >= len(v) {
		return denseFinite(v)
	}
	scratch := tensor.GetScratch(len(v))
	s := SelectTopKScratch(v, k, scratch)
	tensor.PutScratch(scratch)
	return s
}

// SelectTopKScratch is SelectTopK with a caller-provided selection
// scratch buffer of capacity ≥ len(v), whose contents are clobbered. A nil
// or too-small scratch falls back to the shared pool.
func SelectTopKScratch(v []float64, k int, scratch []float64) *Sparse {
	if k <= 0 {
		panic("compress: non-positive k")
	}
	if k >= len(v) {
		return denseFinite(v)
	}
	if cap(scratch) < len(v) {
		return SelectTopK(v, k)
	}
	thr, above := selectThreshold(v, k, scratch[:len(v)])
	// Everything strictly above the threshold is taken; the rest of the k
	// slots go to the first at-threshold entries in coordinate order
	// (duplicates of the threshold). Knowing the former count up front lets
	// one coordinate-order pass take both, so the indices come out strictly
	// ascending by construction — the invariant the wire's ascending
	// layout rests on. A non-finite coordinate has raw bits above every
	// threshold and is skipped there: it ranked as zero and is not sent
	// even as a zero-magnitude tie.
	ties := k - above
	s := &Sparse{Dim: len(v), Indices: make([]int32, k), Values: make([]float64, k)}
	n := 0
	for i, x := range v {
		b := math.Float64bits(x) &^ signMask
		if b < thr {
			continue
		}
		if b == thr {
			if ties == 0 {
				continue
			}
			ties--
		} else if b >= expMask {
			continue
		}
		s.Indices[n] = int32(i)
		s.Values[n] = x
		n++
	}
	s.Indices, s.Values = s.Indices[:n], s.Values[:n]
	return s
}

// denseFinite is the k ≥ len(v) fast path: every finite coordinate is
// transmitted, non-finite ones are dropped (zero magnitude). With an
// all-finite input it is equivalent to NewSparseDense.
func denseFinite(v []float64) *Sparse {
	s := &Sparse{Dim: len(v), Indices: make([]int32, 0, len(v)), Values: make([]float64, 0, len(v))}
	for i, x := range v {
		if !finite(x) {
			continue
		}
		s.Indices = append(s.Indices, int32(i))
		s.Values = append(s.Values, x)
	}
	return s
}

// Codec compresses a gradient vector into a sparse message. Encode may be
// stateful (error accumulation); Ratio is the requested byte-level
// compression factor for this call, letting AdaFL vary it round to round.
type Codec interface {
	Name() string
	Encode(grad []float64, ratio float64) *Sparse
	// Reset clears any client-local state (accumulators).
	Reset()
}

// roundToFloat32 rounds vals in place to the nearest float32: the paper's
// 4-byte parameters. It is the last step of every codec that transmits
// plain values (Identity, TopK, DGC), which is what lets the wire carry
// them as f32 while every transport — gob, binary, in-process — still
// delivers exactly what the codec produced. A finite magnitude past
// MaxFloat32 saturates rather than becoming ±Inf, which a codec never
// transmits for a finite input.
func roundToFloat32(vals []float64) {
	for i, v := range vals {
		r := float64(float32(v))
		if math.IsInf(r, 0) && !math.IsInf(v, 0) {
			r = math.Copysign(math.MaxFloat32, v)
		}
		vals[i] = r
	}
}

// Identity transmits the gradient uncompressed (at float32 precision)
// regardless of ratio.
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// Encode implements Codec.
func (Identity) Encode(grad []float64, _ float64) *Sparse {
	s := NewSparseDense(grad)
	roundToFloat32(s.Values)
	return s
}

// Reset implements Codec.
func (Identity) Reset() {}

// TopK is magnitude sparsification without error feedback: the classic
// baseline that simply drops small coordinates. The only state is the
// reused selection scratch buffer, so one instance must not be shared
// between concurrently-encoding clients.
type TopK struct {
	scratch []float64
}

// Name implements Codec.
func (*TopK) Name() string { return "topk" }

// Encode implements Codec.
func (t *TopK) Encode(grad []float64, ratio float64) *Sparse {
	if cap(t.scratch) < len(grad) {
		t.scratch = make([]float64, len(grad))
	}
	s := SelectTopKScratch(grad, KForRatio(len(grad), ratio), t.scratch)
	roundToFloat32(s.Values)
	return s
}

// Reset implements Codec.
func (t *TopK) Reset() {}
