package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"adafl/internal/tensor"
)

// A vector sent whole — a model broadcast's ĝ — travels as a sparse
// section too: a Support plans the section of the coordinates whose bits
// are not +0 and writes it straight from the vector, and ReadSupport
// decodes such a section piece by piece as it comes off a socket, holding
// it as it was sent: the dense layout as one vector, any other as
// ascending (index, value) pairs. Both are lossless, so the receiver's
// vector equals the sender's bit for bit, −0, NaN payloads, infinities
// and subnormals included.

// Support is a vector's section, planned by Plan and then written by
// AppendBinary or EncodeBinaryTo: the bytes AppendBinary writes for the
// Sparse of the vector's coordinates whose bits are not +0 (−0 and NaN
// included), or for the dense Sparse of all of them when that section is
// no larger. An all-+0 vector is an empty section. The support is never
// materialised: Plan counts it, and each pass reads it off the vector.
type Support struct {
	v   []float64
	dim int
	nnz int
	src source
	lay sparseLayout
	blk *supportBlocks   // a block of the support, once one is compacted
	pl  *[2][4]planeCode // the dense and the sparse layout's plane codings, once a vector is f32
}

// Plan lays out the section of v, dim coordinates — v empty means all +0
// — and returns its size. The Support holds v until the section is
// written. It panics if v is neither empty nor dim long.
func (g *Support) Plan(v []float64, dim int) int {
	if len(v) != 0 && len(v) != dim {
		panic(fmt.Sprintf("compress: Support of %d values for dim %d", len(v), dim))
	}
	n, f32 := countSupport(v)
	g.v, g.dim, g.nnz = v, dim, n
	if g.blk == nil && 0 < n && n < dim {
		g.blk = new(supportBlocks)
	}
	var densePlanes, sparsePlanes *[4]planeCode
	if f32 {
		if g.pl == nil {
			g.pl = new([2][4]planeCode)
		}
		densePlanes, sparsePlanes = &g.pl[0], &g.pl[1]
	}
	g.src = source{vals: v, support: g.blk}
	lay := &g.lay
	*lay = sparseLayout{size: sparseBinaryHeader, planes: densePlanes}
	if n == dim {
		// The support is every coordinate: the dense section is its own.
		lay.flags |= sparseFlagDense
		g.src = source{vals: v}
		lay.planValues(&g.src, n)
		return lay.size
	}
	if n == 0 {
		g.src = source{}
		return lay.size // the raw layout of no coordinates
	}
	// The dense section, then the sparse one, when a bound on the sparse
	// one does not already lose to it.
	sparse := sparseLayout{size: sparseBinaryHeader, planes: sparsePlanes}
	dense := source{vals: v}
	if f32 {
		var h [4][256]uint32
		g.src.runs(func(_ []int32, vals []float64) { planeHist(&h, vals) })
		sparse.flags |= sparseFlagF32
		sparse.size += planPlanes(sparse.planes, &h, n)
		for p := range h {
			h[p][0] += uint32(dim - n)
		}
		lay.flags |= sparseFlagDense | sparseFlagF32
		lay.size += planPlanes(lay.planes, &h, dim)
	} else {
		lay.flags |= sparseFlagDense
		lay.size += 8 * dim
		sparse.size += 8 * n
	}
	if lay.size <= sparse.size+min(1+(n+7)/8, 4*n) {
		g.src = dense
		return lay.size
	}
	last := len(v) - 1
	for math.Float64bits(v[last]) == 0 {
		last--
	}
	sparse.planIndices(&g.src, n, dim, int64(last))
	if lay.size <= sparse.size {
		g.src = dense
		return lay.size
	}
	*lay = sparse
	return lay.size
}

// countSupport returns how many of v's coordinates are not +0 and whether
// every one is exactly a float32.
func countSupport(v []float64) (n int, f32 bool) {
	f32 = true
	for off := 0; off < len(v); off += supportBlock {
		blk := v[off:min(off+supportBlock, len(v))]
		for _, x := range blk {
			b := math.Float64bits(x)
			n += int((b | -b) >> 63)
		}
		if f32 {
			var bad uint64
			for _, x := range blk {
				bad |= math.Float64bits(float64(float32(x))) ^ math.Float64bits(x)
			}
			f32 = bad == 0
		}
	}
	return n, f32
}

// AppendBinary appends the planned section to dst and returns the
// extended slice, letting go of the vector.
func (g *Support) AppendBinary(dst []byte) []byte {
	nnz := g.nnz
	if g.lay.flags&sparseFlagDense != 0 {
		nnz = g.dim
	}
	dst = appendSection(dst, &g.lay, &g.src, g.dim, nnz)
	g.v, g.src = nil, source{}
	return dst
}

// EncodeBinaryTo streams the planned section to w through chunk, a
// scratch buffer of at least 16 bytes, letting go of the vector.
func (g *Support) EncodeBinaryTo(w io.Writer, chunk []byte) error {
	if len(chunk) < 16 {
		return fmt.Errorf("compress: EncodeBinaryTo scratch of %d bytes, need >= 16", len(chunk))
	}
	nnz := g.nnz
	if g.lay.flags&sparseFlagDense != 0 {
		nnz = g.dim
	}
	k := sparseSink{w: w, buf: chunk}
	encodeSection(&k, &g.lay, &g.src, g.dim, nnz)
	g.v, g.src = nil, source{}
	return k.err
}

// ReadSupport reads one sparse section of exactly size bytes describing a
// dim-coordinate vector, drawing its bytes from src, which is only asked
// for bytes the section holds. A dense section is
// returned as vals holding all dim values and a nil idx; any other as the
// strictly ascending coordinates idx, each below dim, and their values
// vals, every coordinate off idx being +0. idx and vals reuse the
// capacity of the slices passed in. Every length is checked against size
// before anything is allocated, so no allocation exceeds a small multiple
// of size. A section of another dimension, a quantized one, unknown flags,
// indices out of order, repeated or out of range, nnz > dim and any
// length mismatch are errors wrapping ErrMalformed.
func ReadSupport(src PieceSource, size int64, dim int,
	idx []int32, vals []float64) ([]int32, []float64, error) {
	if size < sparseBinaryHeader {
		return nil, nil, ErrBinaryTruncated
	}
	var h sectionHead
	in := byteSource{pieces: src, left: size}
	defer h.release()
	if err := h.read(&in); err != nil {
		return nil, nil, err
	}
	n := int64(h.nnz)
	switch {
	case int64(h.dim) != int64(dim):
		return nil, nil, fmt.Errorf("%w: section of dim %d for a vector of %d", ErrMalformed, h.dim, dim)
	case h.quant():
		return nil, nil, fmt.Errorf("%w: sflags %#02x in a vector section", ErrMalformed, h.flags)
	case n > int64(dim):
		return nil, nil, fmt.Errorf("%w: nnz %d exceeds dim %d", ErrMalformed, n, dim)
	case h.size > size:
		return nil, nil, fmt.Errorf("%w: %d-byte section with a %d-byte head", ErrMalformed, size, h.size)
	}
	run, err := h.runBytes(size - h.size)
	if err != nil {
		return nil, nil, err
	}
	vals = fitScratch(vals, int(n))
	if h.dense() {
		return nil, vals, readSupportValues(&in, &h, vals)
	}
	if idx = fitScratch(idx, int(n)); idx == nil {
		idx = []int32{} // pairs, though none: only a dense section has no idx
	}
	if h.ascending() {
		if err := readRice(&in, run, h.k, idx, int64(dim)); err != nil {
			return nil, nil, err
		}
	} else {
		prev := int64(-1)
		for dst := idx; len(dst) > 0; {
			b, err := in.take(4, len(dst))
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
	return idx, vals, readSupportValues(&in, &h, vals)
}

// readSupportValues fills vals from in: byte planes, widened exactly, or
// f64s.
func readSupportValues(in *byteSource, h *sectionHead, vals []float64) error {
	if h.f32() {
		return readPlanes(in, h, vals)
	}
	for dst := vals; len(dst) > 0; {
		b, err := in.take(8, len(dst))
		if err != nil {
			return err
		}
		k := len(b) / 8
		tensor.ReadF64LE(dst[:k], b)
		dst = dst[k:]
	}
	return nil
}
