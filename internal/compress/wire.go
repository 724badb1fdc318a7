package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"adafl/internal/tensor"
)

// Binary wire layout for a Sparse message (all integers little-endian):
//
//	u32 dim
//	u32 nnz
//	u8  sflags       bit0: dense identity — indices 0..dim-1 are implied
//	                 and the index run is omitted
//	                 bit1: quantized — a u32 level count and f64 norm
//	                 follow, and values travel bit-packed
//	                 bit2: ascending — indices are strictly ascending and
//	                 travel as a delta-varint run
//	                 bit3: f32 — every value is exactly a float32 and
//	                 travels as one
//	[u32 levels]     quantizer level count s (quantized only)
//	[f64 norm]       quantizer scale scalar (quantized only)
//	indices          nothing (dense), uvarint(first) then uvarint(gap-1)
//	                 per index (ascending), or nnz × u32
//	values           ⌈nnz·bits/8⌉ packed sign+level integers (quantized;
//	                 bits = QuantBitsFor(levels)), nnz × f32, or nnz × f64
//
// The encoder picks the layout from what the message holds, so the wire
// is a lossless transport for any Sparse: decode(encode(s)) equals s bit
// for bit. Ascending is taken when the indices are strictly ascending
// (every SelectTopK* output) and the varint run is shorter than nnz × u32;
// f32 when float64(float32(v)) is v, bitwise, for every value — which
// holds for the output of Identity, TopK and DGC, the codecs that round
// what they transmit to the paper's 4-byte parameters (roundToFloat32). A
// message from anywhere else (full-mantissa values, unsorted or repeated
// indices) takes neither bit and travels as u32 + f64, so
// SparseBinarySize stays an upper bound. Dense excludes ascending and
// quantized excludes f32; a decoder rejects those pairs and unknown bits.
//
// Precision is therefore the codecs' decision, not the wire's: gob,
// binary and in-process sessions all carry the values the codec produced
// and stay bit-identical to each other. Quantized values are packed
// losslessly because every quantized value is exactly sign·norm·l/s (the
// Sparse.QuantLevels contract): the decoder recomputes the identical
// float64 expression the codecs use. The layout is owned here so
// internal/rpc (the envelope codec) and any future mmap'd spill format
// agree on it.

// sflags bits.
const (
	sparseFlagDense     = 1 << iota // index run omitted
	sparseFlagQuant                 // levels + norm header, bit-packed values
	sparseFlagAscending             // delta-varint index run
	sparseFlagF32                   // 4-byte values
	sparseFlagsKnown    = sparseFlagDense | sparseFlagQuant | sparseFlagAscending | sparseFlagF32
)

// sparseBinaryHeader is the fixed prefix: dim + nnz + flags.
const sparseBinaryHeader = 4 + 4 + 1

// sparseQuantHeader is the extra prefix of a quantized payload: levels + norm.
const sparseQuantHeader = 4 + 8

// maxQuantLevels bounds the level count a decoder accepts. 2^20 levels is
// already a 22-bit quantizer — far past the point where quantization beats
// shipping floats — so anything larger is a hostile or corrupt frame.
const maxQuantLevels = 1 << 20

// SparseBinarySize bounds the binary encoding of an nnz-element sparse
// vector: the raw layout, u32 index + f64 value per coordinate. The dense,
// ascending and f32 layouts are only taken when smaller, and a packed
// quantized payload is smaller beyond a few coordinates but carries a
// sparseQuantHeader-byte extension — callers adding slack of 12+ bytes,
// as the fleet harness does, bound every layout.
// Fleet-scale receivers size their frame caps and payload pools from it.
func SparseBinarySize(nnz int) int { return sparseBinaryHeader + 12*nnz }

// ErrBinaryTruncated reports a sparse binary payload shorter than its own
// header claims. It is the clean-truncation error the fault injector's
// mid-message cut must surface as.
var ErrBinaryTruncated = fmt.Errorf("%w: truncated binary payload", ErrMalformed)

// quantized reports whether the message travels in the packed quantized
// layout: QuantBits set with a usable level count.
func (s *Sparse) quantized() bool {
	return s.QuantBits > 0 && s.QuantLevels >= 1 && s.QuantLevels <= maxQuantLevels
}

// quantLevel recovers the (level, sign) integer pair a quantized value was
// built from, clamping anything out of contract (non-finite values, levels
// past s) onto the grid. Zero keeps its sign bit so ±0 round-trips.
func quantLevel(v, norm float64, levels int) (l, sign uint64) {
	if math.Signbit(v) {
		sign = 1
	}
	if norm == 0 || math.IsNaN(v) {
		return 0, sign
	}
	a := math.Round(math.Abs(v) / norm * float64(levels))
	if !(a >= 0) {
		return 0, sign
	}
	if a > float64(levels) {
		a = float64(levels)
	}
	return uint64(a), sign
}

// quantValue is the decoder's inverse: the exact float64 expression the
// quantizing codecs use, so reconstruction is bit-identical to the values
// the sender held.
func quantValue(l, sign uint64, norm float64, levels int) float64 {
	val := norm * float64(l) / float64(levels)
	if sign == 1 {
		val = -val
	}
	return val
}

// isFloat32 reports whether v survives a trip through float32 bit for bit
// (±0, float32 subnormals and infinities do; a NaN only if its payload
// does).
func isFloat32(v float64) bool {
	return math.Float64bits(float64(float32(v))) == math.Float64bits(v)
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint32) int {
	switch {
	case x < 1<<7:
		return 1
	case x < 1<<14:
		return 2
	case x < 1<<21:
		return 3
	case x < 1<<28:
		return 4
	}
	return 5
}

// sparseLayout is the layout decision of one frame: the sflags the message
// qualifies for and the section size that follows from them. It costs one
// scan of the indices and one of the values, each ending at the first
// element that rules its compact form out, so a sender decides once per
// frame and hands the result to the encoder.
type sparseLayout struct {
	flags byte
	size  int
}

func (s *Sparse) layout() sparseLayout {
	lay := sparseLayout{size: sparseBinaryHeader}

	ascending, run, prev := true, 0, int32(-1)
	for _, idx := range s.Indices {
		if idx <= prev {
			ascending = false
			break
		}
		run += uvarintLen(uint32(idx) - uint32(prev) - 1)
		prev = idx
	}
	n := len(s.Indices)
	switch {
	case ascending && n == s.Dim && (n == 0 || int(prev) == n-1):
		// n strictly ascending indices from >= 0 ending at n-1 are 0..n-1,
		// the shape NewSparseDense produces.
		lay.flags |= sparseFlagDense
	case ascending && run < 4*n:
		lay.flags |= sparseFlagAscending
		lay.size += run
	default:
		lay.size += 4 * n
	}

	if s.quantized() {
		lay.flags |= sparseFlagQuant
		lay.size += sparseQuantHeader + (len(s.Values)*QuantBitsFor(s.QuantLevels)+7)/8
		return lay
	}
	f32 := len(s.Values) > 0
	for _, v := range s.Values {
		if !isFloat32(v) {
			f32 = false
			break
		}
	}
	if f32 {
		lay.flags |= sparseFlagF32
		lay.size += 4 * len(s.Values)
	} else {
		lay.size += 8 * len(s.Values)
	}
	return lay
}

// BinaryWireSize returns the exact encoded size of AppendBinary's output.
func (s *Sparse) BinaryWireSize() int { return s.layout().size }

// sparseSink is the encoder's output: bytes collect in buf and drain to w
// whenever buf fills. With a nil w nothing drains, and buf must hold the
// whole section plus the varint run's look-ahead (AppendBinary).
type sparseSink struct {
	w   io.Writer
	buf []byte
	n   int // bytes of buf filled
}

// free returns the unfilled tail of buf, at least need bytes long,
// draining buf first when it is shorter.
func (k *sparseSink) free(need int) ([]byte, error) {
	if len(k.buf)-k.n < need {
		if err := k.flush(); err != nil {
			return nil, err
		}
	}
	return k.buf[k.n:], nil
}

func (k *sparseSink) flush() error {
	if k.w == nil || k.n == 0 {
		return nil
	}
	_, err := k.w.Write(k.buf[:k.n])
	k.n = 0
	return err
}

// putByte appends one byte.
func (k *sparseSink) putByte(c byte) error {
	b, err := k.free(1)
	if err != nil {
		return err
	}
	b[0] = c
	k.n++
	return nil
}

// putRun appends a run of n elements of at most width bytes each, a
// buf-full at a time: put appends elements [lo, hi) to b, which has room.
func (k *sparseSink) putRun(n, width int, put func(b []byte, lo, hi int) []byte) error {
	for lo := 0; lo < n; {
		b, err := k.free(width)
		if err != nil {
			return err
		}
		hi := lo + min(n-lo, len(b)/width)
		k.n += len(put(b[:0], lo, hi))
		lo = hi
	}
	return nil
}

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (s *Sparse) AppendBinary(dst []byte) []byte {
	lay := s.layout()
	need := lay.size + binary.MaxVarintLen32 // the varint run's look-ahead
	if cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	k := sparseSink{buf: dst[len(dst):cap(dst)]}
	_ = s.encode(lay, &k) // a nil writer cannot fail
	return dst[:len(dst)+k.n]
}

// EncodeBinaryTo streams the binary encoding of s to w through chunk, a
// caller-owned scratch buffer (len ≥ 16, ideally a few KB). Streaming
// through a bounded chunk instead of materialising the frame keeps a
// connection's send path allocation-free without retaining an
// update-sized buffer per peer. begin, when non-nil, is called with the
// exact encoded size before the first byte is written: a framing caller
// emits its length prefix there, off the same layout decision the
// encoding uses, instead of paying BinaryWireSize's scans a second time.
func (s *Sparse) EncodeBinaryTo(w io.Writer, chunk []byte, begin func(size int) error) error {
	if len(chunk) < 16 {
		return fmt.Errorf("compress: EncodeBinaryTo scratch of %d bytes, need >= 16", len(chunk))
	}
	lay := s.layout()
	if begin != nil {
		if err := begin(lay.size); err != nil {
			return err
		}
	}
	return s.encode(lay, &sparseSink{w: w, buf: chunk})
}

// encode is the one encoder of the sparse section: it writes s in the
// layout lay (which must be s.layout()) through k.
func (s *Sparse) encode(lay sparseLayout, k *sparseSink) error {
	b, err := k.free(sparseBinaryHeader)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(s.Dim))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(s.Values)))
	b[8] = lay.flags
	k.n += sparseBinaryHeader
	if lay.flags&sparseFlagQuant != 0 {
		if b, err = k.free(sparseQuantHeader); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(b[0:], uint32(s.QuantLevels))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(s.QuantNorm))
		k.n += sparseQuantHeader
	}

	switch {
	case lay.flags&sparseFlagDense != 0:
	case lay.flags&sparseFlagAscending != 0:
		prev := int32(-1)
		err = k.putRun(len(s.Indices), binary.MaxVarintLen32, func(b []byte, lo, hi int) []byte {
			for _, idx := range s.Indices[lo:hi] {
				b = binary.AppendUvarint(b, uint64(uint32(idx)-uint32(prev)-1))
				prev = idx
			}
			return b
		})
	default:
		err = k.putRun(len(s.Indices), 4, func(b []byte, lo, hi int) []byte {
			if hostLittleEndian {
				return b[:copy(b[:4*(hi-lo)], int32Bytes(s.Indices[lo:hi]))]
			}
			for _, idx := range s.Indices[lo:hi] {
				b = binary.LittleEndian.AppendUint32(b, uint32(idx))
			}
			return b
		})
	}
	if err != nil {
		return err
	}

	switch {
	case lay.flags&sparseFlagQuant != 0:
		bits := uint(QuantBitsFor(s.QuantLevels))
		var acc uint64
		var nbits uint
		for _, v := range s.Values {
			l, sign := quantLevel(v, s.QuantNorm, s.QuantLevels)
			acc |= (l | sign<<(bits-1)) << nbits
			for nbits += bits; nbits >= 8; nbits -= 8 {
				if err := k.putByte(byte(acc)); err != nil {
					return err
				}
				acc >>= 8
			}
		}
		if nbits > 0 {
			err = k.putByte(byte(acc))
		}
	case lay.flags&sparseFlagF32 != 0:
		err = k.putRun(len(s.Values), 4, func(b []byte, lo, hi int) []byte {
			b = b[:4*(hi-lo)]
			tensor.NarrowLE(b, s.Values[lo:hi])
			return b
		})
	default:
		err = k.putRun(len(s.Values), 8, func(b []byte, lo, hi int) []byte {
			b = b[:8*(hi-lo)]
			tensor.PutF64LE(b, s.Values[lo:hi])
			return b
		})
	}
	if err != nil {
		return err
	}
	return k.flush()
}

// checkAscendingRun validates the delta-varint run of nnz indices that must
// fill b exactly: no varint longer than five bytes, no gap or running
// index past MaxInt32, nothing short and nothing left over.
func checkAscendingRun(b []byte, nnz uint32) error {
	pos, idx := 0, int64(-1)
	for i := uint32(0); i < nnz; i++ {
		if pos == len(b) {
			return ErrBinaryTruncated
		}
		c := b[pos]
		pos++
		gap := int64(c & 0x7f)
		for n := 1; c >= 0x80; n++ {
			if pos == len(b) {
				return ErrBinaryTruncated
			}
			if n == binary.MaxVarintLen32 {
				return fmt.Errorf("%w: index %d is a varint of more than %d bytes",
					ErrMalformed, i, binary.MaxVarintLen32)
			}
			c = b[pos]
			pos++
			gap |= int64(c&0x7f) << (7 * n)
		}
		// Five 7-bit groups hold 35 bits, so the sum cannot wrap, and it
		// is past MaxInt32 whenever the gap alone is.
		if idx += 1 + gap; idx > math.MaxInt32 {
			return fmt.Errorf("%w: index %d overflows int32", ErrMalformed, i)
		}
	}
	if pos != len(b) {
		return fmt.Errorf("%w: %d trailing bytes after %d coordinates", ErrMalformed, len(b)-pos, nnz)
	}
	return nil
}

// shrinkFloor is the decode scratch capacity, in values, that fitScratch
// never shrinks below.
const shrinkFloor = 8 << 10

// fitScratch returns buf at length n, reallocated when it is too small or
// when it has grown past shrinkFloor and n needs less than a quarter of
// it: one dense warm-up update does not pin a dense-size scratch for the
// session, and a stream of equal-size messages never reallocates.
func fitScratch[T any](buf []T, n int) []T {
	if c := cap(buf); c >= n && (c <= shrinkFloor || n >= c/4) {
		return buf[:n]
	}
	return make([]T, n)
}

// DecodeBinaryInto decodes a sparse binary payload produced by
// AppendBinary into s, reusing s's slices when capacity allows (the
// zero-allocation receive path) and shrinking them as fitScratch does.
// data must be exactly one encoded message. The flags and the declared
// nnz are validated against len(data) before any allocation — the varint
// run by a walk of its own — so a corrupt count cannot force an
// oversized allocation; structural
// validation beyond shape (index bounds versus the receiver's model)
// stays with Sparse.Check.
func (s *Sparse) DecodeBinaryInto(data []byte) error {
	if len(data) < sparseBinaryHeader {
		return ErrBinaryTruncated
	}
	dim := binary.LittleEndian.Uint32(data[0:])
	nnz := binary.LittleEndian.Uint32(data[4:])
	flags := data[8]
	rest := data[sparseBinaryHeader:]

	if dim > math.MaxInt32 {
		return fmt.Errorf("%w: dim %d overflows int32", ErrMalformed, dim)
	}
	dense := flags&sparseFlagDense != 0
	quant := flags&sparseFlagQuant != 0
	ascending := flags&sparseFlagAscending != 0
	f32 := flags&sparseFlagF32 != 0
	if flags&^sparseFlagsKnown != 0 || dense && ascending || quant && f32 {
		return fmt.Errorf("%w: sflags %#02x", ErrMalformed, flags)
	}

	levels, bits := 0, 0
	var norm float64
	if quant {
		if len(rest) < sparseQuantHeader {
			return ErrBinaryTruncated
		}
		levels = int(binary.LittleEndian.Uint32(rest[0:]))
		norm = math.Float64frombits(binary.LittleEndian.Uint64(rest[4:]))
		rest = rest[sparseQuantHeader:]
		if levels < 1 || levels > maxQuantLevels {
			return fmt.Errorf("%w: quantizer level count %d outside [1, %d]",
				ErrMalformed, levels, maxQuantLevels)
		}
		if math.IsNaN(norm) || math.IsInf(norm, 0) || norm < 0 {
			return fmt.Errorf("%w: quantizer norm %v not finite and non-negative", ErrMalformed, norm)
		}
		bits = QuantBitsFor(levels)
	}

	// Exact-length validation before any allocation: a lying count can
	// neither force an oversized allocation nor smuggle trailing bytes.
	var want uint64
	switch {
	case quant:
		want = (uint64(nnz)*uint64(bits) + 7) / 8
	case f32:
		want = uint64(nnz) * 4
	default:
		want = uint64(nnz) * 8
	}
	if ascending {
		// The value run's length is known; what precedes it must be
		// exactly nnz varints.
		if want > uint64(len(rest)) {
			return ErrBinaryTruncated
		}
		if err := checkAscendingRun(rest[:uint64(len(rest))-want], nnz); err != nil {
			return err
		}
	} else {
		if !dense {
			want += uint64(nnz) * 4
		}
		if want != uint64(len(rest)) {
			if want > uint64(len(rest)) {
				return ErrBinaryTruncated
			}
			return fmt.Errorf("%w: %d trailing bytes after %d coordinates",
				ErrMalformed, uint64(len(rest))-want, nnz)
		}
	}
	if dense && nnz != dim {
		return fmt.Errorf("%w: dense flag with nnz %d != dim %d", ErrMalformed, nnz, dim)
	}

	n := int(nnz)
	s.Dim = int(dim)
	s.QuantBits, s.QuantLevels, s.QuantNorm = 0, 0, 0
	if quant {
		s.QuantBits, s.QuantLevels, s.QuantNorm = bits, levels, norm
	}
	s.Indices = fitScratch(s.Indices, n)
	s.Values = fitScratch(s.Values, n)
	switch {
	case dense:
		for i := range s.Indices {
			s.Indices[i] = int32(i)
		}
	case ascending:
		// checkAscendingRun has vouched for every byte this reads.
		prev, pos := int32(-1), 0
		for i := range s.Indices {
			c := rest[pos]
			pos++
			gap := int32(c & 0x7f)
			for shift := 7; c >= 0x80; shift += 7 {
				c = rest[pos]
				pos++
				gap |= int32(c&0x7f) << shift
			}
			prev += 1 + gap
			s.Indices[i] = prev
		}
		rest = rest[pos:]
	default:
		if hostLittleEndian {
			copy(int32Bytes(s.Indices), rest[:4*n])
		} else {
			for i := range s.Indices {
				s.Indices[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
			}
		}
		rest = rest[4*n:]
	}
	switch {
	case quant:
		b := uint(bits)
		mask := uint64(1)<<(b-1) - 1
		var acc uint64
		var nbits uint
		pos := 0
		for i := range s.Values {
			for nbits < b {
				acc |= uint64(rest[pos]) << nbits
				pos++
				nbits += 8
			}
			chunkBits := acc & (uint64(1)<<b - 1)
			acc >>= b
			nbits -= b
			l := chunkBits & mask
			sign := chunkBits >> (b - 1)
			if l > uint64(levels) {
				return fmt.Errorf("%w: quantized level %d exceeds level count %d",
					ErrMalformed, l, levels)
			}
			s.Values[i] = quantValue(l, sign, norm, levels)
		}
	case f32:
		tensor.WidenLE(s.Values, rest)
	default:
		tensor.ReadF64LE(s.Values, rest)
	}
	return nil
}

// hostLittleEndian reports whether this host stores an int32 as the wire
// does, least significant byte first: then a raw index run is the bytes of
// the Indices slice, and moves as one copy. The f32 and f64 runs move
// through tensor's LE kernels, which are byte-order safe on any host.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// int32Bytes is v's memory as bytes: the same memory, not a copy.
func int32Bytes(v []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}
