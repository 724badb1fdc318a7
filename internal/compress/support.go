package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"adafl/internal/tensor"
)

// A vector sent whole — a model broadcast's ĝ — travels as a sparse
// section too: SetSupport keeps the coordinates whose bits are not +0,
// and ReadSupport decodes such a section piece by piece as it comes off a
// socket, holding it as it was sent: the dense layout as one vector, any
// other as ascending (index, value) pairs. Both are lossless, so the
// receiver's vector equals the sender's bit for bit, −0, NaN payloads,
// infinities and subnormals included.

// SetSupport makes s the vector v of dim coordinates — v empty means all
// +0 — as a section carries it in the fewest bytes: the coordinates whose
// bits are not +0 (−0 and NaN included), in ascending order, or every
// coordinate in the dense layout when that section would be no larger.
// An all-+0 v leaves an empty section. It returns the section's size and
// reuses s's slices, which grow to dim entries. It panics if v is neither
// empty nor dim long.
func (s *Sparse) SetSupport(v []float64, dim int) int {
	if len(v) != 0 && len(v) != dim {
		panic(fmt.Sprintf("compress: SetSupport of %d values for dim %d", len(v), dim))
	}
	idx, vals := grow(s.Indices, len(v)), grow(s.Values, len(v))
	n := 0
	for i, x := range v {
		// Every coordinate is written, and n moves past it only when its
		// bits are not +0: no branch for a support that is random.
		b := math.Float64bits(x)
		idx[n], vals[n] = int32(i), x
		n += int((b | -b) >> 63)
	}
	*s = Sparse{Dim: dim, Indices: idx[:n], Values: vals[:n]}
	lay := s.layout()
	width := 8
	if lay.flags&sparseFlagF32 != 0 {
		width = 4
	}
	if n == 0 || lay.size < sparseBinaryHeader+width*dim {
		return lay.size
	}
	s.Indices, s.Values = idx, vals[:copy(vals, v)]
	for i := range idx {
		idx[i] = int32(i)
	}
	return sparseBinaryHeader + width*dim
}

// grow returns buf at length n, reallocated only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ReadSupport reads one sparse section of exactly size bytes describing a
// dim-coordinate vector, drawing its bytes from next, which returns the
// next whole values of width bytes — at most limit of them, at least one —
// and is only asked for bytes the section holds. A dense section is
// returned as vals holding all dim values and a nil idx; any other as the
// strictly ascending coordinates idx, each below dim, and their values
// vals, every coordinate off idx being +0. idx and vals reuse the
// capacity of the slices passed in. Every length is checked against size
// before anything is allocated, so no allocation exceeds a few times
// size. A section of another dimension, a quantized one, unknown flags,
// indices out of order, repeated or out of range, nnz > dim and any
// length mismatch are errors wrapping ErrMalformed.
func ReadSupport(next func(width, limit int) ([]byte, error), size int64, dim int,
	idx []int32, vals []float64) ([]int32, []float64, error) {
	if size < sparseBinaryHeader {
		return nil, nil, ErrBinaryTruncated
	}
	var head [sparseBinaryHeader]byte
	for h := head[:0]; len(h) < len(head); {
		b, err := next(1, len(head)-len(h))
		if err != nil {
			return nil, nil, err
		}
		h = append(h, b...)
	}
	d, n := binary.LittleEndian.Uint32(head[0:]), int64(binary.LittleEndian.Uint32(head[4:]))
	flags := head[8]
	dense, ascending := flags&sparseFlagDense != 0, flags&sparseFlagAscending != 0
	width := int64(8)
	if flags&sparseFlagF32 != 0 {
		width = 4
	}
	rest := size - sparseBinaryHeader
	run := rest - n*width // the index run's bytes
	switch {
	case int64(d) != int64(dim):
		return nil, nil, fmt.Errorf("%w: section of dim %d for a vector of %d", ErrMalformed, d, dim)
	case flags&^(sparseFlagDense|sparseFlagAscending|sparseFlagF32) != 0 || dense && ascending:
		return nil, nil, fmt.Errorf("%w: sflags %#02x in a vector section", ErrMalformed, flags)
	case n > int64(dim):
		return nil, nil, fmt.Errorf("%w: nnz %d exceeds dim %d", ErrMalformed, n, dim)
	case dense && (n != int64(dim) || run != 0),
		ascending && (run < n || run > binary.MaxVarintLen32*n),
		!dense && !ascending && run != 4*n:
		return nil, nil, fmt.Errorf("%w: %d-byte section does not hold %d coordinates as sflags %#02x say",
			ErrMalformed, size, n, flags)
	}
	vals = fitScratch(vals, int(n))
	if dense {
		return nil, vals, readValues(next, vals, width)
	}
	if idx = fitScratch(idx, int(n)); idx == nil {
		idx = []int32{} // pairs, though none: only a dense section has no idx
	}
	prev := int64(-1)
	if ascending {
		// The indices only grow, so the last one alone is held to dim.
		var gap int64
		var shift uint
		i := 0
		for run > 0 {
			b, err := next(1, int(run))
			if err != nil {
				return nil, nil, err
			}
			run -= int64(len(b))
			for k := 0; k < len(b); k++ {
				// Eight one-byte varints (gaps below 128, the common case
				// of a dense-ish support) decode from one word.
				for shift == 0 && len(b)-k >= 8 && len(idx)-i >= 8 {
					w := binary.LittleEndian.Uint64(b[k:])
					if w&0x8080808080808080 != 0 {
						break
					}
					out := idx[i : i+8 : i+8]
					for t := range out {
						prev += 1 + int64(w>>(8*t)&0x7f)
						out[t] = int32(prev)
					}
					i, k = i+8, k+8
				}
				if k == len(b) {
					break
				}
				c := b[k]
				gap |= int64(c&0x7f) << shift
				if c >= 0x80 {
					if shift += 7; shift == 7*binary.MaxVarintLen32 {
						return nil, nil, fmt.Errorf("%w: index %d is a varint of more than %d bytes", ErrMalformed, i, binary.MaxVarintLen32)
					}
					continue
				}
				if i == len(idx) {
					return nil, nil, fmt.Errorf("%w: index run goes on past coordinate %d", ErrMalformed, n)
				}
				prev += 1 + gap
				idx[i], gap, shift = int32(prev), 0, 0
				i++
			}
		}
		if i != len(idx) || prev >= int64(dim) {
			return nil, nil, fmt.Errorf("%w: index run of %d coordinates, to %d, for %d below %d", ErrMalformed, i, prev, n, dim)
		}
	} else {
		for dst := idx; len(dst) > 0; {
			b, err := next(4, len(dst))
			if err != nil {
				return nil, nil, err
			}
			for k := 0; k+4 <= len(b); k += 4 {
				x := int64(binary.LittleEndian.Uint32(b[k:]))
				if x <= prev || x >= int64(dim) {
					return nil, nil, fmt.Errorf("%w: index %d after %d in a section of dim %d", ErrMalformed, x, prev, dim)
				}
				dst[k/4], prev = int32(x), x
			}
			dst = dst[len(b)/4:]
		}
	}
	return idx, vals, readValues(next, vals, width)
}

// readValues fills vals from next with values of width 4 (float32,
// widened exactly) or 8 bytes.
func readValues(next func(width, limit int) ([]byte, error), vals []float64, width int64) error {
	for dst := vals; len(dst) > 0; {
		b, err := next(int(width), len(dst))
		if err != nil {
			return err
		}
		k := len(b) / int(width)
		if width == 4 {
			tensor.WidenLE(dst[:k], b)
		} else {
			tensor.ReadF64LE(dst[:k], b)
		}
		dst = dst[k:]
	}
	return nil
}
