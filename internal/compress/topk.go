package compress

import (
	"math"

	"adafl/internal/tensor"
)

// finite reports whether x is neither NaN nor ±Inf. The selection path
// treats non-finite coordinates as zero magnitude: a NaN inside the
// quickselect partition compares false against everything and can leave
// the pivot ordering — and with it the loop bounds — inconsistent, and a
// ±Inf would pass every threshold and be transmitted verbatim, poisoning
// the server-side aggregate.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// topKThreshold returns the magnitude of the k-th largest |v| using an
// iterative quickselect over scratch (O(n) expected). Non-finite entries
// rank as zero magnitude. k must be in [1, len(v)] and scratch must have
// length len(v); its contents are clobbered.
func topKThreshold(v []float64, k int, scratch []float64) float64 {
	abs := scratch[:len(v)]
	for i, x := range v {
		if x < 0 {
			x = -x
		}
		if !finite(x) {
			x = 0
		}
		abs[i] = x
	}
	// Select the element at rank len-k in ascending order.
	target := len(abs) - k
	lo, hi := 0, len(abs)-1
	for lo < hi {
		pivot := abs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for abs[i] < pivot {
				i++
			}
			for abs[j] > pivot {
				j--
			}
			if i <= j {
				abs[i], abs[j] = abs[j], abs[i]
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
	return abs[target]
}

// SelectTopK builds a sparse message from the k largest-magnitude
// coordinates of v. Ties at the threshold are resolved by coordinate order
// and the result is truncated to exactly k entries. The quickselect scratch
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

// SelectTopKScratch is SelectTopK with a caller-provided quickselect
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
	thr := topKThreshold(v, k, scratch[:len(v)])
	// Everything strictly above the threshold is taken; the rest of the k
	// slots go to the first at-threshold entries in coordinate order
	// (duplicates of the threshold). Counting the former first lets one
	// coordinate-order pass take both, so the indices come out strictly
	// ascending by construction — the invariant the wire's ascending
	// layout rests on.
	above := 0
	for _, x := range v {
		if selectMag(x) > thr {
			above++
		}
	}
	ties := k - above
	s := &Sparse{Dim: len(v), Indices: make([]int32, 0, k), Values: make([]float64, 0, k)}
	for i, x := range v {
		a := selectMag(x)
		if a == thr && ties > 0 {
			ties--
		} else if a <= thr {
			continue
		}
		s.Indices = append(s.Indices, int32(i))
		s.Values = append(s.Values, x)
	}
	return s
}

// selectMag is |x| for the selection pass, and -1 — below every threshold —
// for a non-finite x: those ranked as zero magnitude in topKThreshold and
// are never transmitted, but +Inf would pass any threshold as it stands.
func selectMag(x float64) float64 {
	if !finite(x) {
		return -1
	}
	if x < 0 {
		return -x
	}
	return x
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
// reused quickselect scratch buffer, so one instance must not be shared
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
