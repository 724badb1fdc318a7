package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"adafl/internal/tensor"
)

// Binary wire layout for a Sparse message (all integers little-endian,
// bit streams least significant bit first; entropy.go has the coders):
//
//	u32 dim
//	u32 nnz
//	u8  sflags       bit0: dense identity — indices 0..dim-1 are implied
//	                 and the index run is omitted
//	                 bit1: quantized — a u32 level count and f64 norm
//	                 follow, and values travel bit-packed
//	                 bit2: ascending — indices are strictly ascending,
//	                 below dim, and travel as a Rice run
//	                 bit3: f32 — every value is exactly a float32 and
//	                 travels as four byte planes
//	[u32 levels]     quantizer level count s (quantized only)
//	[f64 norm]       quantizer scale scalar (quantized only)
//	[u8 k]           the Rice parameter, at most 31 (ascending only)
//	[u8 modes        the planes' codings, two bits each from plane 0 in
//	                 the low bits: 0 raw, 1 Huffman (f32 only)
//	 per Huffman plane, in plane order:
//	   table         code lengths, a nibble per symbol (codeList.appendTable)
//	   uvarint len   the plane's stream bytes]
//	indices          nothing (dense), the Rice run of the gaps, zero-padded
//	                 to a byte (ascending), or nnz × u32
//	values           ⌈nnz·bits/8⌉ packed sign+level integers (quantized;
//	                 bits = QuantBitsFor(levels)), planes 0..3 of the
//	                 values' float32 bits (f32: nnz bytes each raw, len
//	                 bytes each coded), or nnz × f64
//
// The encoder picks the layout from what the message holds, so the wire
// is a lossless transport for any Sparse: decode(encode(s)) equals s bit
// for bit. Ascending is taken when the indices are strictly ascending
// within [0, dim) (every SelectTopK* output) and the Rice run and its
// parameter byte are shorter than nnz × u32; f32 when float64(float32(v))
// is v, bitwise, for every value — which holds for the output of
// Identity, TopK and DGC, the codecs that round what they transmit to the
// paper's 4-byte parameters (roundToFloat32) — and each plane is coded
// when the section holds planeCodeMin values or more and the plane's
// table, length and stream are shorter than nnz bytes. A message
// from anywhere else (full-mantissa values, unsorted or repeated indices)
// takes neither bit and travels as u32 + f64, so SparseBinarySize stays
// an upper bound. Dense excludes ascending and quantized excludes f32; a
// decoder rejects those pairs and unknown bits.
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
	sparseFlagAscending             // Rice-coded index run
	sparseFlagF32                   // float32 values as byte planes
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

// sparseLayout is the layout decision of one section: the sflags the
// message qualifies for, the section size that follows from them, and the
// entropy coders' parameters. It costs one scan of the indices and one of
// the values, each ending at the first element that rules its compact form
// out, so a sender decides once per frame and hands the result to the
// encoder.
type sparseLayout struct {
	flags  byte
	size   int
	levels int           // quantized: the level count
	norm   float64       // quantized: the scale scalar
	k      uint          // ascending: the Rice parameter
	planes *[4]planeCode // f32: the byte planes' codings
}

// planePool holds the plane codings of the messages being laid out: 6 KB
// that a message of f64 values never touches and an f32 one borrows.
var planePool = sync.Pool{New: func() any { return new([4]planeCode) }}

// release returns the plane codings lay borrowed.
func (lay *sparseLayout) release() {
	if lay.planes != nil {
		planePool.Put(lay.planes)
		lay.planes = nil
	}
}

// source is a section's coordinates as the encoder's passes read them:
// a Sparse's indices and values, or a vector (vals) of which the section
// carries every coordinate or, with support set, those whose bits are not
// +0, compacted a block at a time into support.
type source struct {
	idx     []int32
	vals    []float64
	support *supportBlocks
}

// supportBlock is how many coordinates of a vector runs compacts at a time.
const supportBlock = 256

// supportBlocks holds one compacted block of a vector's support.
type supportBlocks struct {
	idx  [supportBlock]int32
	vals [supportBlock]float64
}

// runs calls fn with the source's coordinates and their values, in order,
// a run at a time.
func (src *source) runs(fn func(idx []int32, vals []float64)) {
	if src.support == nil {
		fn(src.idx, src.vals)
		return
	}
	ib, vb := &src.support.idx, &src.support.vals
	for off := 0; off < len(src.vals); off += supportBlock {
		n := 0
		for i, x := range src.vals[off:min(off+supportBlock, len(src.vals))] {
			// Every coordinate is written, and n moves past it only when
			// its bits are not +0: no branch for a support that is random.
			b := math.Float64bits(x)
			ib[n], vb[n] = int32(off+i), x
			n += int((b | -b) >> 63)
		}
		if n > 0 {
			fn(ib[:n], vb[:n])
		}
	}
}

// layout plans s into lay, which must be released after use.
func (s *Sparse) layout(lay *sparseLayout) {
	src := source{idx: s.Indices, vals: s.Values}
	lay.flags, lay.size, lay.k = 0, sparseBinaryHeader, 0
	last := int64(-1)
	if n := len(s.Indices); n > 0 {
		last = int64(s.Indices[n-1])
	}
	lay.planIndices(&src, len(s.Indices), s.Dim, last)
	if s.quantized() {
		lay.flags |= sparseFlagQuant
		lay.levels, lay.norm = s.QuantLevels, s.QuantNorm
		lay.size += sparseQuantHeader + (len(s.Values)*QuantBitsFor(s.QuantLevels)+7)/8
		return
	}
	lay.planValues(&src, len(s.Values))
}

// planIndices lays out the n indices of src, the last of them last, of a
// message of dimension dim: dense when they are 0..dim-1, ascending when
// the Rice run is shorter than the raw one, raw otherwise.
func (lay *sparseLayout) planIndices(src *source, n, dim int, last int64) {
	if n == dim && identity(src.idx) {
		lay.flags |= sparseFlagDense
		return
	}
	if k, run, ok := riceSize(src, n, dim, last); ok && 1+run < 4*n {
		lay.flags |= sparseFlagAscending
		lay.k = k
		lay.size += 1 + run
		return
	}
	lay.size += 4 * n
}

// identity reports whether idx is 0, 1, …, len(idx)-1.
func identity(idx []int32) bool {
	for i, x := range idx {
		if x != int32(i) {
			return false
		}
	}
	return true
}

// planValues lays out the n values of src: as byte planes when every one
// is exactly a float32, as f64 otherwise.
func (lay *sparseLayout) planValues(src *source, n int) {
	if n == 0 || src.support == nil && !isFloat32(src.vals[0]) {
		lay.size += 8 * n // the common f64 message fails at once
		return
	}
	var h [4][256]uint32
	f32 := true
	src.runs(func(_ []int32, vals []float64) {
		if n < planeCodeMin { // raw planes: no counts needed
			for _, v := range vals {
				f32 = f32 && isFloat32(v)
			}
			return
		}
		f32 = f32 && planeHist(&h, vals)
	})
	if !f32 {
		lay.size += 8 * n
		return
	}
	if lay.planes == nil {
		lay.planes = planePool.Get().(*[4]planeCode)
	}
	lay.flags |= sparseFlagF32
	lay.size += planPlanes(lay.planes, &h, n)
}

// BinaryWireSize returns the exact encoded size of AppendBinary's output.
func (s *Sparse) BinaryWireSize() int {
	var lay sparseLayout
	s.layout(&lay)
	lay.release()
	return lay.size
}

// sparseSink is the encoder's output: bytes collect in buf and drain to w
// whenever buf fills. With a nil w nothing drains, and buf must hold the
// whole section plus the bit writer's look-ahead (AppendBinary). The first
// write error sticks; later bytes are dropped.
type sparseSink struct {
	w   io.Writer
	buf []byte
	n   int // bytes of buf filled
	err error
}

// free returns the unfilled tail of buf, at least need bytes long,
// draining buf first when it is shorter.
func (k *sparseSink) free(need int) []byte {
	if len(k.buf)-k.n < need {
		k.flush()
	}
	return k.buf[k.n:]
}

func (k *sparseSink) flush() {
	if k.w == nil || k.n == 0 {
		return
	}
	if k.err == nil {
		_, k.err = k.w.Write(k.buf[:k.n])
	}
	k.n = 0
}

// putByte appends one byte.
func (k *sparseSink) putByte(c byte) {
	k.free(1)[0] = c
	k.n++
}

// putBytes appends b.
func (k *sparseSink) putBytes(b []byte) {
	k.putRun(len(b), 1, func(dst []byte, lo, hi int) []byte { return append(dst, b[lo:hi]...) })
}

// putRun appends a run of n elements of at most width bytes each, a
// buf-full at a time: put appends elements [lo, hi) to b, which has room.
func (k *sparseSink) putRun(n, width int, put func(b []byte, lo, hi int) []byte) {
	for lo := 0; lo < n; {
		b := k.free(width)
		hi := lo + min(n-lo, len(b)/width)
		k.n += len(put(b[:0], lo, hi))
		lo = hi
	}
}

// sinkSlack is the room past a section's end that AppendBinary leaves the
// encoder: a bit writer stores whole words, of which only the bytes it
// has filled count.
const sinkSlack = 8

// AppendBinary appends the binary encoding of s to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (s *Sparse) AppendBinary(dst []byte) []byte {
	var lay sparseLayout
	s.layout(&lay)
	src := source{idx: s.Indices, vals: s.Values}
	dst = appendSection(dst, &lay, &src, s.Dim, len(s.Values))
	lay.release()
	return dst
}

// appendSection appends the section src, laid out as lay, to dst.
func appendSection(dst []byte, lay *sparseLayout, src *source, dim, nnz int) []byte {
	if cap(dst)-len(dst) < lay.size+sinkSlack {
		dst = append(make([]byte, 0, len(dst)+lay.size+sinkSlack), dst...)
	}
	k := sparseSink{buf: dst[len(dst):cap(dst)]}
	encodeSection(&k, lay, src, dim, nnz)
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
	var lay sparseLayout
	s.layout(&lay)
	defer lay.release()
	if begin != nil {
		if err := begin(lay.size); err != nil {
			return err
		}
	}
	src := source{idx: s.Indices, vals: s.Values}
	k := sparseSink{w: w, buf: chunk}
	encodeSection(&k, &lay, &src, s.Dim, len(s.Values))
	return k.err
}

// encodeSection is the one encoder of the sparse section: it writes the
// nnz coordinates of src, of a dim-coordinate vector, in the layout lay
// (which planned them) through k, and drains k.
func encodeSection(k *sparseSink, lay *sparseLayout, src *source, dim, nnz int) {
	var head [sparseBinaryHeader + sparseQuantHeader + 2]byte
	b := binary.LittleEndian.AppendUint32(head[:0], uint32(dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(nnz))
	b = append(b, lay.flags)
	if lay.flags&sparseFlagQuant != 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(lay.levels))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lay.norm))
	}
	if lay.flags&sparseFlagAscending != 0 {
		b = append(b, byte(lay.k))
	}
	if lay.flags&sparseFlagF32 != 0 {
		var modes byte
		for p := range lay.planes {
			if lay.planes[p].coded {
				modes |= 1 << (2 * p)
			}
		}
		b = append(b, modes)
	}
	k.putBytes(b)
	if lay.flags&sparseFlagF32 != 0 {
		for p := range lay.planes {
			if c := &lay.planes[p]; c.coded {
				k.putBytes(c.head[:c.headLen])
			}
		}
	}

	switch {
	case lay.flags&sparseFlagDense != 0:
	case lay.flags&sparseFlagAscending != 0:
		w := bitWriter{k: k}
		prev := int64(-1)
		src.runs(func(idx []int32, _ []float64) {
			prev = riceEncode(&w, idx, prev, lay.k)
		})
		w.close()
	default:
		src.runs(func(idx []int32, _ []float64) {
			k.putRun(len(idx), 4, func(b []byte, lo, hi int) []byte {
				if hostLittleEndian {
					return b[:copy(b[:4*(hi-lo)], int32Bytes(idx[lo:hi]))]
				}
				for _, i := range idx[lo:hi] {
					b = binary.LittleEndian.AppendUint32(b, uint32(i))
				}
				return b
			})
		})
	}

	switch {
	case lay.flags&sparseFlagQuant != 0:
		bits := uint(QuantBitsFor(lay.levels))
		var acc uint64
		var nbits uint
		for _, v := range src.vals {
			l, sign := quantLevel(v, lay.norm, lay.levels)
			acc |= (l | sign<<(bits-1)) << nbits
			for nbits += bits; nbits >= 8; nbits -= 8 {
				k.putByte(byte(acc))
				acc >>= 8
			}
		}
		if nbits > 0 {
			k.putByte(byte(acc))
		}
	case lay.flags&sparseFlagF32 != 0:
		for p := range lay.planes {
			encodePlane(k, src, p, &lay.planes[p])
		}
	default:
		src.runs(func(_ []int32, vals []float64) {
			k.putRun(len(vals), 8, func(b []byte, lo, hi int) []byte {
				b = b[:8*(hi-lo)]
				tensor.PutF64LE(b, vals[lo:hi])
				return b
			})
		})
	}
	k.flush()
}

// sectionHead is a section's prefix up to its index run: the header, the
// quantizer's header, the Rice parameter and the byte planes' codings.
// Every length the runs after it must have follows from it, so a decoder
// checks them against the bytes it has before allocating anything. The
// decode tables of an f32 section's planes are borrowed and must be
// released.
type sectionHead struct {
	dim, nnz uint32
	flags    byte
	levels   int
	norm     float64
	k        uint
	planes   [4]planeHead
	tabs     *[4][huffTableLen]uint16 // f32: plane p's decode table, rawTable when raw
	size     int64                    // the head's bytes
}

// planeHead is one byte plane's coding: Huffman or raw, its stream's
// bytes, and its longest code (8 for a raw plane).
type planeHead struct {
	coded   bool
	size    int64
	longest uint
}

// release returns the decode tables h borrowed.
func (h *sectionHead) release() {
	if h.tabs != nil {
		tablePool.Put(h.tabs)
		h.tabs = nil
	}
}

func (h *sectionHead) dense() bool     { return h.flags&sparseFlagDense != 0 }
func (h *sectionHead) quant() bool     { return h.flags&sparseFlagQuant != 0 }
func (h *sectionHead) ascending() bool { return h.flags&sparseFlagAscending != 0 }
func (h *sectionHead) f32() bool       { return h.flags&sparseFlagF32 != 0 }

// readFull reads exactly len(b) bytes of the section from in.
func readFull(in *byteSource, b []byte) error {
	for len(b) > 0 {
		p, err := in.take(1, len(b))
		if err != nil {
			return err
		}
		b = b[copy(b, p):]
	}
	return nil
}

// read reads a section's head from in and checks what it declares by
// itself: known flags in allowed pairs, a dim within int32, the
// quantizer's level count and norm, the Rice parameter, and for every
// coded plane a complete code whose stream length lies between what nnz
// symbols take at its shortest code and at its longest.
func (h *sectionHead) read(in *byteSource) error {
	var b [sparseBinaryHeader + sparseQuantHeader]byte
	if err := readFull(in, b[:sparseBinaryHeader]); err != nil {
		return err
	}
	h.dim = binary.LittleEndian.Uint32(b[0:])
	h.nnz = binary.LittleEndian.Uint32(b[4:])
	h.flags = b[8]
	h.size = sparseBinaryHeader
	if h.dim > math.MaxInt32 {
		return fmt.Errorf("%w: dim %d overflows int32", ErrMalformed, h.dim)
	}
	if h.flags&^sparseFlagsKnown != 0 || h.dense() && h.ascending() || h.quant() && h.f32() {
		return fmt.Errorf("%w: sflags %#02x", ErrMalformed, h.flags)
	}
	if h.quant() {
		if err := readFull(in, b[:sparseQuantHeader]); err != nil {
			return err
		}
		h.size += sparseQuantHeader
		h.levels = int(binary.LittleEndian.Uint32(b[0:]))
		h.norm = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
		if h.levels < 1 || h.levels > maxQuantLevels {
			return fmt.Errorf("%w: quantizer level count %d outside [1, %d]",
				ErrMalformed, h.levels, maxQuantLevels)
		}
		if math.IsNaN(h.norm) || math.IsInf(h.norm, 0) || h.norm < 0 {
			return fmt.Errorf("%w: quantizer norm %v not finite and non-negative", ErrMalformed, h.norm)
		}
	}
	if h.ascending() {
		if err := readFull(in, b[:1]); err != nil {
			return err
		}
		h.size++
		if h.k = uint(b[0]); h.k > riceMaxK {
			return fmt.Errorf("%w: Rice parameter %d past %d", ErrMalformed, h.k, riceMaxK)
		}
	}
	if !h.f32() {
		return nil
	}
	if err := readFull(in, b[:1]); err != nil {
		return err
	}
	h.size++
	modes := b[0]
	for p := range h.planes {
		ph := &h.planes[p]
		switch modes >> (2 * p) & 3 {
		case 0:
			ph.coded, ph.size, ph.longest = false, int64(h.nnz), 8
			continue
		case 1:
		default:
			return fmt.Errorf("%w: byte plane %d coding %d", ErrMalformed, p, modes>>(2*p)&3)
		}
		if h.tabs == nil {
			h.tabs = tablePool.Get().(*[4][huffTableLen]uint16)
		}
		var list codeList
		lo, hi, n, err := readHuffTable(in, &list)
		ph.coded, ph.longest = true, hi
		h.size += n
		if err != nil {
			return err
		}
		list.decodeTable(&h.tabs[p])
		var size uint64
		for shift := 0; ; shift += 7 {
			if err := readFull(in, b[:1]); err != nil {
				return err
			}
			h.size++
			if shift == 28 && b[0] > 0x07 {
				return fmt.Errorf("%w: byte plane %d's length overflows", ErrMalformed, p)
			}
			size |= uint64(b[0]&0x7f) << shift
			if b[0] < 0x80 {
				break
			}
		}
		nnz := uint64(h.nnz)
		if size < (nnz*uint64(lo)+7)/8 || size > (nnz*uint64(hi)+7)/8 {
			return fmt.Errorf("%w: byte plane %d of %d bytes cannot hold %d symbols of %d to %d bits",
				ErrMalformed, p, size, nnz, lo, hi)
		}
		ph.size = int64(size)
	}
	for p := range h.planes {
		if h.tabs != nil && !h.planes[p].coded {
			h.tabs[p] = rawTable // the kernel walks raw planes as codes
		}
	}
	return nil
}

// runBytes returns the bytes of the index run of a section whose head is
// h and whose runs take rest bytes, after checking that rest is what the
// head declares: the value run's length exactly, and the index run's
// exactly for a dense or a raw one, and for a Rice run at least one code
// of k+1 bits per index and at most what nnz indices below dim take.
func (h *sectionHead) runBytes(rest int64) (int64, error) {
	nnz, dim := int64(h.nnz), int64(h.dim)
	var values int64
	switch {
	case h.quant():
		values = (nnz*int64(QuantBitsFor(h.levels)) + 7) / 8
	case h.f32():
		for p := range h.planes {
			values += h.planes[p].size
		}
	default:
		values = 8 * nnz
	}
	run := rest - values
	switch {
	case h.dense() && nnz != dim:
		return 0, fmt.Errorf("%w: dense flag with nnz %d != dim %d", ErrMalformed, nnz, dim)
	case h.ascending() && nnz > dim:
		return 0, fmt.Errorf("%w: nnz %d ascending below dim %d", ErrMalformed, nnz, dim)
	case h.ascending():
		k := int64(h.k)
		lo, hi := (nnz*(k+1)+7)/8, (nnz*(k+1)+(dim-nnz)>>k+7)/8
		if run < lo {
			return 0, ErrBinaryTruncated
		}
		if run > hi {
			return 0, fmt.Errorf("%w: %d-byte index run for %d indices below %d", ErrMalformed, run, nnz, dim)
		}
		return run, nil
	}
	want := int64(0)
	if !h.dense() {
		want = 4 * nnz
	}
	if run < want {
		return 0, ErrBinaryTruncated
	}
	if run > want {
		return 0, fmt.Errorf("%w: %d trailing bytes after %d coordinates", ErrMalformed, run-want, nnz)
	}
	return run, nil
}

// readPlanes reads the four byte planes of h from in into vals.
func readPlanes(in *byteSource, h *sectionHead, vals []float64) error {
	for p := range h.planes {
		r := bitReader{in: in, left: h.planes[p].size}
		if err := readPlane(r, p, h.table(p), vals); err != nil {
			return err
		}
	}
	return nil
}

// table returns plane p's decode table, nil when the plane is raw.
func (h *sectionHead) table(p int) *[huffTableLen]uint16 {
	if !h.planes[p].coded {
		return nil
	}
	return &h.tabs[p]
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
// data must be exactly one encoded message. The head and every length it
// declares are validated against len(data) before any allocation, so a
// corrupt count cannot force an allocation past a small multiple of
// len(data) (every coordinate takes at least two bits); structural
// validation beyond shape (index bounds versus the receiver's model)
// stays with Sparse.Check.
func (s *Sparse) DecodeBinaryInto(data []byte) error {
	var h sectionHead
	in := byteSource{b: data}
	defer h.release()
	if err := h.read(&in); err != nil {
		return err
	}
	run, err := h.runBytes(int64(len(in.b)))
	if err != nil {
		return err
	}

	n := int(h.nnz)
	s.Dim = int(h.dim)
	s.QuantBits, s.QuantLevels, s.QuantNorm = 0, 0, 0
	if h.quant() {
		s.QuantBits, s.QuantLevels, s.QuantNorm = QuantBitsFor(h.levels), h.levels, h.norm
	}
	s.Indices = fitScratch(s.Indices, n)
	s.Values = fitScratch(s.Values, n)
	switch {
	case h.dense():
		for i := range s.Indices {
			s.Indices[i] = int32(i)
		}
	case h.ascending():
		if err := readRice(&in, run, h.k, s.Indices, int64(h.dim)); err != nil {
			return err
		}
	default:
		if hostLittleEndian {
			copy(int32Bytes(s.Indices), in.b[:4*n])
		} else {
			for i := range s.Indices {
				s.Indices[i] = int32(binary.LittleEndian.Uint32(in.b[4*i:]))
			}
		}
		in.b = in.b[4*n:]
	}
	rest := in.b
	switch {
	case h.quant():
		levels, norm := h.levels, h.norm
		b := uint(s.QuantBits)
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
	case h.f32():
		return decodePlanes(&h, rest, s.Values)
	default:
		tensor.ReadF64LE(s.Values, rest)
	}
	return nil
}

// hostLittleEndian reports whether this host stores an int32 as the wire
// does, least significant byte first: then a raw index run is the bytes of
// the Indices slice, and moves as one copy. The f32 and f64 runs move
// through tensor's LE helpers, which make the same choice.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// int32Bytes is v's memory as bytes: the same memory, not a copy.
func int32Bytes(v []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}
