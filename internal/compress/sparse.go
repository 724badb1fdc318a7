// Package compress implements the gradient codecs of the paper: identity
// (no compression), magnitude top-k sparsification, Deep Gradient
// Compression (Lin et al., the base of AdaFL's adaptive compression) with
// momentum correction, local accumulation and gradient clipping, and a
// QSGD-style quantizer used as a model-level baseline.
//
// Every codec produces a Sparse (or quantized) message with exact wire-size
// accounting, because communication cost is the paper's primary metric.
// Values are stored as float64 for computation; the codecs that transmit
// plain values round them to float32 before they leave, which is what
// WireBytes charges and what the binary wire (wire.go) then ships: the
// paper's 4-byte parameters (431k params = 1.64 MB).
package compress

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// BytesPerValue is the wire size of one gradient value (float32).
const BytesPerValue = 4

// BytesPerIndex is the wire size of one sparse coordinate (uint32).
const BytesPerIndex = 4

// headerBytes covers the dimension + count framing of a sparse message.
const headerBytes = 8

// Sparse is a sparse gradient message: values at explicit coordinates of a
// dim-length vector.
type Sparse struct {
	Dim     int
	Indices []int32
	Values  []float64

	// QuantBits, when nonzero, marks a quantized message whose values cost
	// that many bits per coordinate on the wire (sign bit + magnitude bits);
	// WireBytes accounts for the packed representation at message
	// granularity. Set by the QSGD/TernGrad/DAdaQuant codecs. The fields are
	// exported so quantized accounting survives both wire codecs.
	QuantBits int
	// QuantLevels is the quantizer's level count s: every value is exactly
	// sign·QuantNorm·l/s for an integer level l ∈ [0, s]. The binary wire
	// codec relies on this contract to bit-pack values losslessly.
	QuantLevels int
	// QuantNorm is the scale scalar shipped alongside a quantized message.
	QuantNorm float64
}

// NewSparseDense wraps a dense vector as a degenerate sparse message
// carrying every coordinate (used by the identity codec).
func NewSparseDense(v []float64) *Sparse {
	idx := make([]int32, len(v))
	for i := range idx {
		idx[i] = int32(i)
	}
	vals := make([]float64, len(v))
	copy(vals, v)
	return &Sparse{Dim: len(v), Indices: idx, Values: vals}
}

// NNZ returns the number of transmitted coordinates.
func (s *Sparse) NNZ() int { return len(s.Indices) }

// WireBytes returns the exact on-wire size of the message. A dense message
// (NNZ == Dim) omits the index array, as a real implementation would.
// Quantized messages (QuantBits > 0) are charged the packed representation:
// the bit cost is ceiled to bytes once per message, not per coordinate, so
// a 3-bit 1000-coordinate payload costs ⌈3000/8⌉ = 375 bytes, not 1000.
func (s *Sparse) WireBytes() int {
	if s.QuantBits > 0 {
		// Packed quantized form: norm scalar + bit-packed coordinates,
		// plus the index run when the message is also sparsified.
		n := headerBytes + BytesPerValue + (s.NNZ()*s.QuantBits+7)/8
		if s.NNZ() != s.Dim {
			n += s.NNZ() * BytesPerIndex
		}
		return n
	}
	if s.NNZ() == s.Dim {
		return headerBytes + s.Dim*BytesPerValue
	}
	return headerBytes + s.NNZ()*(BytesPerIndex+BytesPerValue)
}

// Dense materialises the message as a full vector.
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Dim)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out
}

// ErrMalformed marks a structurally invalid sparse message: a receiver
// must never feed one to AddTo/Dense, where out-of-range indices panic
// and mismatched arrays silently corrupt the accumulator.
var ErrMalformed = errors.New("compress: malformed sparse message")

// validateCalls counts Validate invocations so tests can pin the
// "validated exactly once per update" contract of the aggregation paths.
// One relaxed atomic add per message is noise next to the O(nnz) bounds
// scan Validate performs anyway.
var validateCalls atomic.Int64

// ValidateCalls returns the process-wide number of Validate invocations.
// It is a diagnostic hook for regression tests; production code should
// not branch on it.
func ValidateCalls() int64 { return validateCalls.Load() }

// Validate checks s against the receiver's model dimension: the declared
// Dim must match, Indices and Values must pair up, the coordinate count
// cannot exceed the dimension, and every index must lie in [0, dim). A
// nil or failing message must be rejected (quarantined) before
// aggregation; Validate never mutates s.
func (s *Sparse) Validate(dim int) error {
	validateCalls.Add(1)
	if s == nil {
		return fmt.Errorf("%w: nil message", ErrMalformed)
	}
	if s.Dim != dim {
		return fmt.Errorf("%w: dim %d, expected %d", ErrMalformed, s.Dim, dim)
	}
	if len(s.Indices) != len(s.Values) {
		return fmt.Errorf("%w: %d indices vs %d values", ErrMalformed, len(s.Indices), len(s.Values))
	}
	if len(s.Indices) > dim {
		return fmt.Errorf("%w: %d coordinates exceed dim %d", ErrMalformed, len(s.Indices), dim)
	}
	for i, idx := range s.Indices {
		if idx < 0 || int(idx) >= dim {
			return fmt.Errorf("%w: index %d at position %d out of range [0, %d)", ErrMalformed, idx, i, dim)
		}
	}
	return nil
}

// Scrub zeroes non-finite (NaN/±Inf) values in place and returns how
// many it replaced. A single poisoned coordinate would otherwise spread
// through the aggregated global model and every subsequent round.
func (s *Sparse) Scrub() int {
	n := 0
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			s.Values[i] = 0
			n++
		}
	}
	return n
}

// Norm2 returns the L2 norm of the message's values (the norm of the
// dense vector it represents, assuming indices are distinct).
func (s *Sparse) Norm2() float64 {
	sum := 0.0
	for _, v := range s.Values {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// AddTo accumulates scale * message into dst, which must have length Dim.
func (s *Sparse) AddTo(dst []float64, scale float64) {
	if len(dst) != s.Dim {
		panic(fmt.Sprintf("compress: AddTo dim %d, message dim %d", len(dst), s.Dim))
	}
	for i, idx := range s.Indices {
		dst[idx] += scale * s.Values[i]
	}
}

// CompressionRatio returns the byte-level compression factor relative to a
// dense transmission (the metric the paper's tables report).
func (s *Sparse) CompressionRatio() float64 {
	full := float64(headerBytes + s.Dim*BytesPerValue)
	return full / float64(s.WireBytes())
}

// DenseBytes returns the wire size of an uncompressed dim-length gradient.
func DenseBytes(dim int) int { return headerBytes + dim*BytesPerValue }

// KForRatio returns the number of coordinates to keep so that the sparse
// wire size is (approximately) a factor ratio smaller than dense. The
// result is clamped to [1, dim]: even an absurdly deep (or +Inf) ratio
// keeps one coordinate, so a negotiated ratio can never produce an empty
// message that wastes the client's round. A NaN or sub-1 ratio means "no
// compression" and returns dim (the conversion int(NaN) is unspecified in
// Go, so NaN must be caught before the arithmetic).
func KForRatio(dim int, ratio float64) int {
	if math.IsNaN(ratio) || ratio <= 1 {
		return dim
	}
	if math.IsInf(ratio, 1) {
		return 1
	}
	k := int(float64(dim*BytesPerValue) / (ratio * float64(BytesPerIndex+BytesPerValue)))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// ClampRatio forces a compression ratio into [lo, hi]. NaN collapses to lo,
// so a poisoned negotiation input degrades to the mildest valid setting
// instead of propagating. Used wherever a ratio crosses a trust boundary
// (negotiated assignments, wire-decoded Select frames, flag parsing).
func ClampRatio(ratio, lo, hi float64) float64 {
	if math.IsNaN(ratio) || ratio < lo {
		return lo
	}
	if ratio > hi {
		return hi
	}
	return ratio
}
