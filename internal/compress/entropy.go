package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// The sparse section's two entropy coders (wire.go has the grammar). Both
// pack bits least significant first.
//
// An ascending index run travels as a Rice code of its gaps: gap g (an
// index minus the one before it, minus one; the first counts from −1) is
// ⌊g/2^k⌋ zero bits, a one bit, then g's k low bits, under one parameter
// k per section, the one of the three around the mean gap's magnitude
// that makes the run shortest.
//
// A float32 value run travels as its four byte planes, low byte first:
// plane p is byte p of every value's bits, in coordinate order. Each plane
// is raw (nnz bytes) or coded with a canonical Huffman code of at most
// huffMaxLen bits, whichever is smaller; a coded plane is preceded, in
// the section's head, by its code-length table and its stream's length.
// Float32 weight deltas are multiples of their weight's ulp and cluster in
// a few exponents, so the high plane and the low one code well under a
// byte per value.

const (
	huffMaxLen   = 11              // the longest Huffman code
	huffTableLen = 1 << huffMaxLen // entries of a decode table
	huffTableMax = 192             // bytes of the longest code-length table
	riceMaxK     = 31              // the largest Rice parameter

	// planeCodeMin is the fewest values whose planes the encoder tries to
	// code: below it, building and reading the code tables costs more CPU
	// than the bytes it saves are worth on a fast link. A ~530-value
	// update of the 8 554-parameter MLP took ~25 µs on a 2 vCPU Xeon to
	// code and decode for ~0.7 KB.
	planeCodeMin = 1024
)

// A PieceSource hands out a section's bytes as they come off a socket:
// Next returns the next whole values of width bytes, at most limit of
// them and at least one.
type PieceSource interface {
	Next(width, limit int) ([]byte, error)
}

// byteSource hands out a section's bytes to its decoders: from pieces,
// which is asked for no more than the left bytes the section holds, or,
// with pieces nil, from b. A bit stream's reader keeps the first error
// pieces returns in err.
type byteSource struct {
	pieces PieceSource
	left   int64
	b      []byte
	err    error
}

// take returns the next whole values of width bytes, at most limit of
// them and at least one.
func (s *byteSource) take(width, limit int) ([]byte, error) {
	if s.pieces != nil {
		if s.left < int64(width) {
			return nil, ErrBinaryTruncated
		}
		b, err := s.pieces.Next(width, int(min(int64(limit), s.left/int64(width))))
		s.left -= int64(len(b))
		return b, err
	}
	n := min(limit, len(s.b)/width) * width
	if n == 0 {
		return nil, ErrBinaryTruncated
	}
	p := s.b[:n]
	s.b = s.b[n:]
	return p, nil
}

// bitWriter packs bits into a sink, least significant first.
type bitWriter struct {
	k   *sparseSink
	acc uint64
	n   uint // bits held in acc, below 32 between calls
}

// put appends the low n bits of v, which has no bit set above them; n ≤ 32.
func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	if w.n += n; w.n >= 32 {
		binary.LittleEndian.PutUint32(w.k.free(4), uint32(w.acc))
		w.k.n += 4
		w.acc >>= 32
		w.n -= 32
	}
}

// close writes the bits left, the last byte padded with zero bits.
func (w *bitWriter) close() {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.k.free(1)[0] = byte(w.acc)
		w.k.n++
		w.acc >>= 8
	}
}

// riceSize sizes the indices of src, n of them ending at last, as a Rice
// run: the parameter that makes it shortest of the three around the mean
// gap's magnitude, and the run's bytes. ok is false when the indices do
// not ascend strictly within [0, dim).
func riceSize(src *source, n, dim int, last int64) (k uint, size int, ok bool) {
	if n == 0 || last >= int64(dim) {
		return 0, 0, false
	}
	lo := uint(0)
	if mean := (last + 1 - int64(n)) / int64(n); mean >= 2 {
		lo = min(uint(bits.Len64(uint64(mean)))-2, riceMaxK-2)
	}
	var q [3]uint64
	prev := int64(-1)
	ok = true
	src.runs(func(idx []int32, _ []float64) {
		if ok {
			prev, ok = riceScan(idx, prev, lo, &q)
		}
	})
	if !ok || prev != last {
		return 0, 0, false
	}
	best := uint64(math.MaxUint64)
	for j, qj := range q {
		if b := uint64(n)*uint64(lo+uint(j)+1) + qj; b < best {
			best, k = b, lo+uint(j)
		}
	}
	return k, int((best + 7) / 8), true
}

// riceScan adds the quotients of idx's gaps, continuing from prev, under
// the parameters lo, lo+1 and lo+2 to q, and returns the last index; ok is
// false at the first index not above the one before it.
func riceScan(idx []int32, prev int64, lo uint, q *[3]uint64) (last int64, ok bool) {
	q0, q1, q2 := q[0], q[1], q[2]
	for _, x := range idx {
		i := int64(x)
		if i <= prev {
			return prev, false
		}
		g := uint64(i-prev-1) >> (lo & 63)
		q0 += g
		q1 += g >> 1
		q2 += g >> 2
		prev = i
	}
	*q = [3]uint64{q0, q1, q2}
	return prev, true
}

// riceEncode writes idx's gaps, continuing from prev, under parameter k
// and returns the last index.
func riceEncode(w *bitWriter, idx []int32, prev int64, k uint) int64 {
	mask := uint64(1)<<k - 1
	for len(idx) > 0 {
		// Codes of at most 32 bits into a window of the sink's buffer,
		// locals all the way: after each, the held bits go out as a word
		// of which the whole bytes count — no branch on when a byte fills.
		b := w.k.free(64)
		m := min(len(idx), (len(b)-8)/5)
		acc, n, pos := w.acc, w.n, 0
		if n >= 8 {
			binary.LittleEndian.PutUint64(b, acc)
			pos, acc, n = int(n>>3), acc>>(n&^7), n&7
		}
		i := 0
		for ; i < m; i++ {
			g := uint64(int64(idx[i]) - prev - 1)
			q, r := uint(g>>k), g&mask
			if q+1+k > 32 {
				break
			}
			prev = int64(idx[i])
			// The masks tell the compiler no shift reaches 64.
			acc |= (1 | r<<1) << (q & 31) << (n & 7)
			n += q + 1 + k
			binary.LittleEndian.PutUint64(b[pos:], acc)
			pos += int(n >> 3)
			acc >>= n & 56
			n &= 7
		}
		w.k.n += pos
		w.acc, w.n = acc, n
		if idx = idx[i:]; len(idx) == 0 || i > 0 && i == m {
			continue
		}
		// A code longer than a word, or a window too short for the word
		// loop (the last bytes of an appended section): one code through
		// put, its unary run in whole words.
		g := uint64(int64(idx[0]) - prev - 1)
		prev = int64(idx[0])
		q := uint(g >> k)
		for ; q >= 32; q -= 32 {
			w.put(0, 32)
		}
		w.put(1<<q, q+1)
		w.put(g&mask, k)
		idx = idx[1:]
	}
	return prev
}

// bitReader reads one stream of known length, least significant bit
// first, from a byteSource. Past the stream's end it reads zero bits and
// counts them in pad, so a decoder runs unchecked and finish judges it
// after.
type bitReader struct {
	in   *byteSource
	src  []byte // bytes taken from in and not yet counted in n
	left int64  // the stream's bytes not yet taken from in
	acc  uint64 // bits from n up are zero or the next bytes of src
	n    uint   // bits of acc not yet consumed
	pad  uint   // zero bits past the stream's end counted in n
}

// refill tops acc up to at least 56 unconsumed bits.
func (r *bitReader) refill() {
	if len(r.src) >= 8 {
		r.acc |= binary.LittleEndian.Uint64(r.src) << (r.n & 63)
		r.src = r.src[(63-r.n)>>3:]
		r.n |= 56
		return
	}
	r.refillSlow()
}

func (r *bitReader) refillSlow() {
	for r.n < 56 {
		if len(r.src) == 0 {
			if r.left == 0 {
				r.pad += 64 - r.n
				r.n = 64
				return
			}
			b, err := r.in.take(1, int(min(r.left, math.MaxInt32)))
			if err != nil {
				r.in.err, r.left = err, 0
				continue
			}
			r.src, r.left = b, r.left-int64(len(b))
			if len(r.src) >= 8 {
				r.refill()
				return
			}
		}
		r.acc |= uint64(r.src[0]) << r.n
		r.src = r.src[1:]
		r.n += 8
	}
}

// finish reports a stream that its decoder read past or left a whole
// byte of unread: its length disagrees with what it was to hold. The
// caller checks the source's error first.
func (r *bitReader) finish(what string) error {
	if r.n < r.pad {
		return fmt.Errorf("%w: %s ends %d bits early", ErrBinaryTruncated, what, r.pad-r.n)
	}
	if r.n-r.pad >= 8 || len(r.src) > 0 || r.left > 0 {
		return fmt.Errorf("%w: %s has unread bytes", ErrMalformed, what)
	}
	return nil
}

// readRice decodes len(idx) indices, each below dim, from a Rice run of
// size bytes with parameter k, taken from in. A unary run that passes
// dim, or a run that is not exactly size bytes, is an error.
func readRice(in *byteSource, size int64, k uint, idx []int32, dim int64) error {
	r := bitReader{in: in, left: size}
	mask := uint64(1)<<k - 1
	prev := int64(-1)
	for i := 0; i < len(idx); i++ {
		var j int
		j, prev, r.acc, r.n, r.src = riceWords(idx[i:], k, dim, prev, r.acc, r.n, r.src)
		if i += j; i == len(idx) {
			break
		}
		if prev >= dim {
			return fmt.Errorf("%w: index %d is %d, past dim %d", ErrMalformed, i, prev, dim)
		}
		// One code the word loop cannot take: a long unary run, or the
		// end of a piece.
		r.refill()
		q := int64(0)
		for {
			tz := uint(bits.TrailingZeros64(r.acc))
			if tz < r.n {
				q += int64(tz)
				r.acc >>= tz + 1
				r.n -= tz + 1
				break
			}
			q += int64(r.n)
			r.acc, r.n = 0, 0
			if r.pad > 0 || q > dim>>k {
				break
			}
			r.refill()
		}
		if q > dim>>k {
			return fmt.Errorf("%w: index %d: unary run of %d past dim %d", ErrMalformed, i, q, dim)
		}
		if r.pad > r.n {
			break
		}
		if r.n < k {
			r.refill()
		}
		g := q<<k | int64(r.acc&mask)
		r.acc >>= k
		r.n -= k
		if prev += 1 + g; prev >= dim {
			return fmt.Errorf("%w: index %d is %d, past dim %d", ErrMalformed, i, prev, dim)
		}
		idx[i] = int32(prev)
	}
	if in.err != nil {
		return in.err
	}
	return r.finish("index run")
}

// riceWords decodes indices into idx after prev from the n bits held in
// acc and the bytes of src, a word at a time, while src has a word to load
// and each code fits in the bits held; it returns how many it decoded and
// the reader's state. It stops at an index past dim, which it returns
// without storing.
func riceWords(idx []int32, k uint, dim, prev int64, acc uint64, n uint, src []byte) (int, int64, uint64, uint, []byte) {
	mask := uint64(1)<<k - 1
	i := 0
	for i < len(idx) && len(src) >= 8 {
		acc |= binary.LittleEndian.Uint64(src) << (n & 63)
		src, n = src[(63-n)>>3:], n|56
		if k == 0 {
			var j int
			j, prev, acc, n = unaryWord(idx[i:], dim, prev, acc, n)
			i += j
		}
		for ; i < len(idx); i++ {
			tz := uint(bits.TrailingZeros64(acc))
			if tz+1+k > n {
				break
			}
			acc >>= (tz + 1) & 63
			g := int64(tz)<<(k&31) | int64(acc&mask)
			acc >>= k & 31
			n -= tz + 1 + k
			if prev += 1 + g; prev >= dim {
				return i, prev, acc, n, src
			}
			idx[i] = int32(prev)
		}
		if i < len(idx) && n >= 56 {
			break // a code longer than a refill holds
		}
	}
	return i, prev, acc, n, src
}

// unaryWord decodes codes under parameter 0 for riceWords: a code is its
// gap's zeros and a one, so an index is prev + 1 plus where its one lies
// in acc, and the ones are taken lowest first, none waiting on the shifts
// of the one before. It stops at the last code that lies whole in the n
// bits held and ends below dim.
func unaryWord(idx []int32, dim, prev int64, acc uint64, n uint) (int, int64, uint64, uint) {
	base := prev + 1
	ones := acc & (1<<(n&63) - 1)
	if lim := dim - base; lim < int64(n) {
		ones &= 1<<(uint(lim)&63) - 1
	}
	i, end := 0, uint(0)
	for ; i < len(idx) && ones != 0; i++ {
		p := uint(bits.TrailingZeros64(ones))
		ones &= ones - 1
		idx[i] = int32(base + int64(p))
		end = p + 1
	}
	return i, base + int64(end) - 1, acc >> (end & 63), n - end
}

// huffLengths sets lens to a Huffman code's lengths for the symbol counts
// h, none over huffMaxLen, and returns the bits the counted symbols take.
// A plane of one symbol gets a second, unused one so that every code is
// complete. h must count at least one symbol.
func huffLengths(h *[256]uint32, lens *[256]uint8) uint64 {
	var keys [256]uint64 // count<<8 | symbol
	m := 0
	for s, c := range h {
		if c > 0 {
			keys[m] = uint64(c)<<8 | uint64(s)
			m++
		}
	}
	*lens = [256]uint8{}
	if m == 1 {
		s := byte(keys[0])
		lens[s], lens[s^1] = 1, 1
		return uint64(h[s])
	}
	slices.Sort(keys[:m])
	var w [257]uint64
	for i := range keys[:m] {
		w[i] = keys[i] >> 8
	}
	w[m] = math.MaxUint64 // past the last leaf
	// Two queues: the leaves in ascending weight, and the internal nodes,
	// made in ascending weight. Node m+t is the t-th internal node; the
	// one being made weighs MaxUint64 until both its children are picked,
	// so neither queue's end needs a test, and each pick is a select, not
	// a branch the weights make unpredictable.
	var parent [511]int
	var iw [256]uint64
	var depth [511]uint8
	for {
		leaf, in := 0, 0
		for t := 0; t < m-1; t++ {
			iw[t] = math.MaxUint64
			var sum uint64
			for range 2 {
				lw, nw := w[leaf], iw[in]
				b := 0
				if lw <= nw {
					b = 1
				}
				sum += min(lw, nw)
				parent[b*leaf+(1-b)*(m+in)] = m + t
				leaf, in = leaf+b, in+1-b
			}
			iw[t] = sum
		}
		longest := uint8(0)
		depth[2*m-2] = 0
		for node := 2*m - 3; node >= 0; node-- {
			depth[node] = depth[parent[node]] + 1
			longest = max(longest, depth[node])
		}
		if longest <= huffMaxLen {
			break
		}
		// Too deep: flatten the weights (halving keeps their order) and
		// build again.
		for i := range w[:m] {
			w[i] = (w[i] + 1) >> 1
		}
	}
	var total uint64
	for i, key := range keys[:m] {
		s := byte(key)
		lens[s] = depth[i]
		total += uint64(h[s]) * uint64(depth[i])
	}
	return total
}

// codeList is a code as its table carries it: the symbols that have a
// code, in ascending order, and their lengths.
type codeList struct {
	m    int
	sym  [256]uint8
	lens [256]uint8
}

// fromLens lists the symbols of lens with a code.
func (c *codeList) fromLens(lens *[256]uint8) {
	m := 0
	for s, l := range lens {
		c.sym[m], c.lens[m] = uint8(s), l
		m += int((uint(l) + 255) >> 8) // 1 when l > 0: no branch on sparse lens
	}
	c.m = m
}

// codes assigns the listed symbols their canonical codes (shorter codes
// first, each length's in symbol order), each bit-reversed to be written
// least significant bit first: code[i] is sym[i]'s.
func (c *codeList) codes(code *[256]uint16) {
	var count, next [16]uint16
	for _, l := range c.lens[:c.m] {
		count[l&15]++
	}
	at := uint16(0)
	for l := 1; l <= huffMaxLen; l++ {
		at = (at + count[l-1]) << 1
		next[l] = at
	}
	for i, l := range c.lens[:c.m] {
		code[i] = bits.Reverse16(next[l&15]) >> (16 - l)
		next[l&15]++
	}
}

// decodeTable fills t for the listed code, which is complete: entry x
// holds the symbol whose code the low bits of x are, and the code's
// length, as symbol<<8 | length.
func (c *codeList) decodeTable(t *[huffTableLen]uint16) {
	var code [256]uint16
	c.codes(&code)
	longest := uint8(1)
	for _, l := range c.lens[:c.m] {
		longest = max(longest, l)
	}
	// The entries below 1<<longest, then that block repeated: the bits
	// past a code's longest length do not change what it decodes to.
	span := 1 << longest
	for i, l := range c.lens[:c.m] {
		e := uint16(c.sym[i])<<8 | uint16(l)
		for x := int(code[i]); x < span; x += 1 << l {
			t[x] = e
		}
	}
	for ; span < huffTableLen; span *= 2 {
		copy(t[span:2*span], t[:span])
	}
}

// appendTable appends the code's length table: one nibble per symbol in
// symbol order, low nibble first, holding its length, except that a run
// of r ≤ 16 absent symbols is the nibble 0 and then r−1. The last byte's
// high nibble is 0 when the table ends mid-byte.
func (c *codeList) appendTable(b []byte) []byte {
	var acc uint64 // nibbles held, the first lowest
	var k uint     // bits held
	put := func(v uint64, bits uint) {
		acc |= v << k
		if k += bits; k >= 56 {
			b = binary.LittleEndian.AppendUint64(b, acc)[:len(b)+int(k/8)]
			acc >>= k &^ 7
			k &= 7
		}
	}
	absent := func(gap int) {
		for ; gap > 0; gap -= 16 {
			put(uint64(min(gap, 16)-1)<<4, 8)
		}
	}
	prev := -1
	for i, s := range c.sym[:c.m] {
		absent(int(s) - prev - 1)
		put(uint64(c.lens[i]), 4)
		prev = int(s)
	}
	absent(255 - prev)
	for ; k > 0; k -= min(k, 8) {
		b = append(b, byte(acc))
		acc >>= 8
	}
	return b
}

// readHuffTable reads a code-length table from in into c and returns the
// shortest and longest length in it. The table must cover exactly the
// 256 symbols, hold no length past huffMaxLen and describe a complete
// code: Kraft's sum exactly 1.
func readHuffTable(in *byteSource, c *codeList) (lo, hi uint, read int64, err error) {
	var cur byte
	half := false
	inPlace := in.pieces == nil // a whole frame: read it where it lies
	if inPlace {
		defer func() { in.b = in.b[read:] }()
	}
	nibble := func() (byte, error) {
		if half {
			half = false
			return cur >> 4, nil
		}
		if inPlace {
			if read == int64(len(in.b)) {
				return 0, ErrBinaryTruncated
			}
			cur = in.b[read]
		} else {
			b, err := in.take(1, 1)
			if err != nil {
				return 0, err
			}
			cur = b[0]
		}
		half = true
		read++
		return cur & 15, nil
	}
	c.m = 0
	lo, kraft := huffMaxLen, 0
	for s := 0; s < 256; {
		v, err := nibble()
		if err != nil {
			return 0, 0, read, err
		}
		if v == 0 {
			r, err := nibble()
			if err != nil {
				return 0, 0, read, err
			}
			if s += int(r) + 1; s > 256 {
				return 0, 0, read, fmt.Errorf("%w: code-length table runs past symbol 255", ErrMalformed)
			}
			continue
		}
		if v > huffMaxLen {
			return 0, 0, read, fmt.Errorf("%w: code length %d past %d", ErrMalformed, v, huffMaxLen)
		}
		c.sym[c.m], c.lens[c.m] = uint8(s), v
		c.m++
		lo, hi = min(lo, uint(v)), max(hi, uint(v))
		kraft += huffTableLen >> v
		s++
	}
	if half && cur>>4 != 0 {
		return 0, 0, read, fmt.Errorf("%w: code-length table's padding nibble is %d", ErrMalformed, cur>>4)
	}
	if kraft != huffTableLen {
		return 0, 0, read, fmt.Errorf("%w: code lengths' Kraft sum is %d/%d, not 1", ErrMalformed, kraft, huffTableLen)
	}
	return lo, hi, read, nil
}

// planeCode is one byte plane's coding: raw, or the Huffman code of lens
// — code[s] is s's code<<8 | its length — in a stream of size bytes,
// whose head is the table and length in head[:headLen].
type planeCode struct {
	coded   bool
	size    int
	lens    [256]uint8
	code    [256]uint32
	head    [huffTableMax + binary.MaxVarintLen32]byte
	headLen int
}

// planeHist adds the byte planes of vals to h and reports whether every
// value is exactly a float32; at the first that is not it stops, h
// incomplete.
func planeHist(h *[4][256]uint32, vals []float64) bool {
	// The sign and exponent byte of the odd values counts apart: that
	// plane holds a few symbols, and one counter hit back to back waits on
	// itself.
	var odd [256]uint32
	for i, v := range vals {
		if !isFloat32(v) {
			return false
		}
		u := math.Float32bits(float32(v))
		h[0][byte(u)]++
		h[1][byte(u>>8)]++
		h[2][byte(u>>16)]++
		if i&1 == 0 {
			h[3][u>>24]++
		} else {
			odd[u>>24]++
		}
	}
	for s, c := range odd {
		h[3][s] += c
	}
	return true
}

// planPlanes codes each plane of n values counted in h the smaller way and
// returns the value run's bytes: the modes byte, every coded plane's
// table and length, and the four planes.
func planPlanes(pl *[4]planeCode, h *[4][256]uint32, n int) int {
	size := 1
	for p := range pl {
		c := &pl[p]
		if c.coded = false; n < planeCodeMin {
			size += n
			continue
		}
		c.size = int((huffLengths(&h[p], &c.lens) + 7) / 8)
		var list codeList
		list.fromLens(&c.lens)
		c.headLen = len(binary.AppendUvarint(list.appendTable(c.head[:0]), uint64(c.size)))
		cost := c.headLen + c.size
		if c.coded = cost < n; c.coded {
			var code [256]uint16
			list.codes(&code)
			c.code = [256]uint32{}
			for i, s := range list.sym[:list.m] {
				c.code[s] = uint32(code[i])<<8 | uint32(list.lens[i])
			}
			size += cost
		} else {
			size += n
		}
	}
	return size
}

// encodePlane writes plane p of src's values coded as c.
func encodePlane(k *sparseSink, src *source, p int, c *planeCode) {
	shift := uint(8 * p)
	if !c.coded {
		src.runs(func(_ []int32, vals []float64) {
			k.putRun(len(vals), 1, func(b []byte, lo, hi int) []byte {
				b = b[:hi-lo]
				for i, v := range vals[lo:hi] {
					b[i] = byte(math.Float32bits(float32(v)) >> shift)
				}
				return b
			})
		})
		return
	}
	w := bitWriter{k: k}
	src.runs(func(_ []int32, vals []float64) {
		w.acc, w.n = codeRun(k, vals, shift, &c.code, w.acc, w.n)
	})
	w.close()
}

// codeRun writes the codes of byte shift/8 of vals' float32 bits after the
// n bits held in acc, and returns the bits it leaves held.
func codeRun(k *sparseSink, vals []float64, shift uint, code *[256]uint32, acc uint64, n uint) (uint64, uint) {
	for ; n < 8 && len(vals) >= 4; vals = vals[4:] {
		// Four codes of at most 11 bits over the fewer than 8 held fit a
		// word, which goes out whole; its whole bytes count.
		if len(k.buf)-k.n < 8 {
			k.flush()
		}
		for _, v := range vals[:4] {
			e := code[byte(math.Float32bits(float32(v))>>(shift&31))]
			acc |= uint64(e>>8) << (n & 63)
			n += uint(e & 0xff)
		}
		binary.LittleEndian.PutUint64(k.buf[k.n:], acc)
		k.n += int(n >> 3)
		acc >>= n & 56
		n &= 7
	}
	for _, v := range vals {
		e := code[byte(math.Float32bits(float32(v))>>shift)]
		acc |= uint64(e>>8) << n
		if n += uint(e & 0xff); n >= 32 {
			binary.LittleEndian.PutUint32(k.free(4), uint32(acc))
			k.n += 4
			acc >>= 32
			n -= 32
		}
	}
	return acc, n
}

// readPlane reads plane p of len(vals) values from r, the rest of the
// plane's stream, into vals, whose bits hold the planes before it: coded
// under decode table t, or raw when t is nil, r then holding no bits. The
// last plane leaves each value widened from its float32 bits.
func readPlane(r bitReader, p int, t *[huffTableLen]uint16, vals []float64) error {
	if t == nil {
		for dst := vals; len(dst) > 0; {
			b := r.src
			if len(b) == 0 {
				var err error
				if b, err = r.in.take(1, len(dst)); err != nil {
					return err
				}
			}
			m := min(len(dst), len(b))
			mergePlane(dst, b[:m], p)
			dst, r.src = dst[m:], b[m:]
		}
		return nil
	}
	var buf [512]byte
	for dst := vals; len(dst) > 0; {
		out := buf[:min(len(dst), len(buf))]
		var i int
		i, r.acc, r.n, r.src = decodeWords(out, t, r.acc, r.n, r.src)
		for ; i < len(out); i++ {
			r.refill()
			e := t[r.acc&(huffTableLen-1)]
			r.acc >>= e & 15
			r.n -= uint(e & 15)
			out[i] = byte(e >> 8)
		}
		mergePlane(dst, out, p)
		dst = dst[len(out):]
	}
	if r.in.err != nil {
		return r.in.err
	}
	return r.finish(planeNames[p])
}

// decodeWords decodes symbols of the code whose decode table is t into
// out, five per word loaded from src, while out has five places left and
// src a word, from the n bits held in acc; it returns how many it decoded
// and the reader's state after them.
func decodeWords(out []byte, t *[huffTableLen]uint16, acc uint64, n uint, src []byte) (int, uint64, uint, []byte) {
	// Five codes of at most 11 bits fit the 56 bits a load leaves.
	i := 0
	for ; i+5 <= len(out) && len(src) >= 8; i += 5 {
		acc |= binary.LittleEndian.Uint64(src) << n
		src = src[(63-n)>>3:]
		n |= 56
		o := out[i : i+5 : i+5]
		for j := range o {
			e := t[acc&(huffTableLen-1)]
			acc >>= e & 15
			n -= uint(e & 15)
			o[j] = byte(e >> 8)
		}
	}
	return i, acc, n, src
}

// rawTable decodes a raw plane as a code: each byte its own 8-bit code.
var rawTable = func() (t [huffTableLen]uint16) {
	for x := range t {
		t[x] = uint16(x&0xff)<<8 | 8
	}
	return t
}()

// tablePool holds the decode tables of the sections being decoded: 16 KB
// that a section of f64 values never touches.
var tablePool = sync.Pool{New: func() any { return new([4][huffTableLen]uint16) }}

// decodePlanes decodes the four byte planes of len(vals) values from b,
// where their streams lie one after the other as h describes: first the
// values decodeGroups reaches, the four planes in step, then the rest
// plane after plane.
func decodePlanes(h *sectionHead, b []byte, vals []float64) error {
	var r [4]bitReader
	var planes [4][]byte
	for p := range h.planes {
		planes[p], b = b[:h.planes[p].size], b[h.planes[p].size:]
		r[p] = bitReader{src: planes[p]}
	}
	i := 0
	if h.tabs != nil {
		i = decodeGroups(vals, h, &r)
	}
	var none byteSource // the streams are whole in b: none reads from a source
	for p := range r {
		rest := r[p]
		t := h.table(p)
		if t == nil { // a raw plane's next byte is its i-th
			rest = bitReader{src: planes[p][i:]}
		}
		rest.in = &none
		if err := readPlane(rest, p, t, vals[i:]); err != nil {
			return err
		}
	}
	return nil
}

var planeNames = [4]string{"byte plane 0", "byte plane 1", "byte plane 2", "byte plane 3"}

// mergePlane puts b, byte p of each value's float32 bits, into the bits
// of vals: the first plane sets them, the last one widens the value.
func mergePlane(vals []float64, b []byte, p int) {
	vals = vals[:len(b)]
	switch p {
	case 0:
		for i, c := range b {
			vals[i] = math.Float64frombits(uint64(c))
		}
	case 3:
		for i, c := range b {
			u := uint32(math.Float64bits(vals[i])) | uint32(c)<<24
			vals[i] = float64(math.Float32frombits(u))
		}
	default:
		for i, c := range b {
			vals[i] = math.Float64frombits(math.Float64bits(vals[i]) | uint64(c)<<(8*p))
		}
	}
}
