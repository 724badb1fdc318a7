package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// forEachLevel runs fn at every tensor dispatch level this CPU has, so the
// sparse section's runs and Check's max passes are compared against their
// element loops through the portable bodies and every vector kernel. The
// portable level also turns the byte-plane kernels off.
func forEachLevel(t testing.TB, fn func(level string)) {
	t.Helper()
	for _, level := range []string{"portable", "avx2", "avx512"} {
		restore, ok := tensor.SetKernelLevel(level)
		if !ok {
			t.Logf("dispatch level %s: not supported by this CPU, skipped", level)
			continue
		}
		t.Logf("dispatch level %s (byte-plane kernels %v)", level, level != "portable" && planeKernels)
		func() {
			defer restore()
			if level == "portable" {
				defer func(on bool) { planeKernels = on }(planeKernels)
				planeKernels = false
			}
			fn(level)
		}()
	}
}

// refBits writes and reads bits one at a time, least significant first:
// the reference the tests hold the word-at-a-time coders to.
type refBits struct {
	b []byte
	n int // bits written, or the bit read next
}

func (w *refBits) put(bit uint64) {
	if w.n%8 == 0 {
		w.b = append(w.b, 0)
	}
	w.b[len(w.b)-1] |= byte(bit&1) << (w.n % 8)
	w.n++
}

// putMSB writes the n bits of v, most significant first: a Huffman code.
func (w *refBits) putMSB(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.put(v >> i)
	}
}

// putLSB writes the n bits of v, least significant first: a number.
func (w *refBits) putLSB(v uint64, n int) {
	for i := 0; i < n; i++ {
		w.put(v >> i)
	}
}

func (r *refBits) get() uint64 {
	bit := uint64(r.b[r.n/8]>>(r.n%8)) & 1
	r.n++
	return bit
}

func (r *refBits) getLSB(n int) (v uint64) {
	for i := 0; i < n; i++ {
		v |= r.get() << i
	}
	return v
}

// refCanonical is the textbook canonical code of lens: symbols ordered by
// length, then by value, each code the one before it plus one, shifted
// left as the length grows. Codes are most significant bit first.
func refCanonical(lens *[256]uint8) (codes [256]uint64) {
	code, prev := uint64(0), uint8(0)
	for l := uint8(1); l <= huffMaxLen; l++ {
		for s := 0; s < 256; s++ {
			if lens[s] == l {
				code <<= l - prev
				prev = l
				codes[s] = code
				code++
			}
		}
	}
	return codes
}

// refTable writes lens as the nibble table: a length per symbol, a run of
// up to 16 absent ones as 0 and the run's length less one.
func refTable(lens *[256]uint8) []byte {
	var w refBits
	for s := 0; s < 256; {
		if lens[s] != 0 {
			w.putLSB(uint64(lens[s]), 4)
			s++
			continue
		}
		r := 0
		for s+r < 256 && r < 16 && lens[s+r] == 0 {
			r++
		}
		w.putLSB(0, 4)
		w.putLSB(uint64(r-1), 4)
		s += r
	}
	return w.b
}

// refAppendBinary is the sparse section's encoder written one coordinate
// and one bit at a time, on the layout decision (flags, Rice parameter,
// planes' code lengths) the encoder took: the bytes the tests hold the
// word-at-a-time encoder to.
func refAppendBinary(s *Sparse) []byte {
	var lay sparseLayout
	s.layout(&lay)
	b := binary.LittleEndian.AppendUint32(nil, uint32(s.Dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Values)))
	b = append(b, lay.flags)
	if lay.flags&sparseFlagQuant != 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.QuantLevels))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.QuantNorm))
	}
	if lay.flags&sparseFlagAscending != 0 {
		b = append(b, byte(lay.k))
	}
	if lay.flags&sparseFlagF32 != 0 {
		var modes byte
		for p, c := range lay.planes {
			if c.coded {
				modes |= 1 << (2 * p)
			}
		}
		b = append(b, modes)
		for _, c := range lay.planes {
			if c.coded {
				b = binary.AppendUvarint(append(b, refTable(&c.lens)...), uint64(c.size))
			}
		}
	}
	switch {
	case lay.flags&sparseFlagDense != 0:
	case lay.flags&sparseFlagAscending != 0:
		var w refBits
		prev := int64(-1)
		for _, idx := range s.Indices {
			g := uint64(int64(idx) - prev - 1)
			prev = int64(idx)
			for q := g >> lay.k; q > 0; q-- {
				w.put(0)
			}
			w.put(1)
			w.putLSB(g, int(lay.k))
		}
		b = append(b, w.b...)
	default:
		for _, idx := range s.Indices {
			b = binary.LittleEndian.AppendUint32(b, uint32(idx))
		}
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
				b = append(b, byte(acc))
				acc >>= 8
			}
		}
		if nbits > 0 {
			b = append(b, byte(acc))
		}
	case lay.flags&sparseFlagF32 != 0:
		for p, c := range lay.planes {
			codes := refCanonical(&c.lens)
			var w refBits
			for _, v := range s.Values {
				sym := byte(math.Float32bits(float32(v)) >> (8 * p))
				if c.coded {
					w.putMSB(codes[sym], int(c.lens[sym]))
				} else {
					w.putLSB(uint64(sym), 8)
				}
			}
			b = append(b, w.b...)
		}
	default:
		for _, v := range s.Values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// refDecodeRuns is the decoder written one coordinate and one bit at a
// time, for a frame DecodeBinaryInto has accepted.
func refDecodeRuns(data []byte) *Sparse {
	dim := binary.LittleEndian.Uint32(data[0:])
	n := int(binary.LittleEndian.Uint32(data[4:]))
	flags := data[8]
	rest := data[sparseBinaryHeader:]
	s := &Sparse{Dim: int(dim), Indices: make([]int32, n), Values: make([]float64, n)}
	levels := 0
	var norm float64
	if flags&sparseFlagQuant != 0 {
		levels = int(binary.LittleEndian.Uint32(rest[0:]))
		norm = math.Float64frombits(binary.LittleEndian.Uint64(rest[4:]))
		rest = rest[sparseQuantHeader:]
		s.QuantBits, s.QuantLevels, s.QuantNorm = QuantBitsFor(levels), levels, norm
	}
	k := 0
	if flags&sparseFlagAscending != 0 {
		k, rest = int(rest[0]), rest[1:]
	}
	var lens [4]*[256]uint8
	if flags&sparseFlagF32 != 0 {
		modes := rest[0]
		rest = rest[1:]
		for p := range lens {
			if modes>>(2*p)&3 == 0 {
				continue
			}
			lens[p] = new([256]uint8)
			r := refBits{b: rest}
			for sym := 0; sym < 256; {
				if v := r.getLSB(4); v != 0 {
					lens[p][sym] = uint8(v)
					sym++
				} else {
					sym += int(r.getLSB(4)) + 1
				}
			}
			rest = rest[(r.n+7)/8:]
			_, m := binary.Uvarint(rest)
			rest = rest[m:]
		}
	}
	switch {
	case flags&sparseFlagDense != 0:
		for i := range s.Indices {
			s.Indices[i] = int32(i)
		}
	case flags&sparseFlagAscending != 0:
		r := refBits{b: rest}
		prev := int64(-1)
		for i := range s.Indices {
			q := uint64(0)
			for r.get() == 0 {
				q++
			}
			prev += 1 + int64(q<<k|r.getLSB(k))
			s.Indices[i] = int32(prev)
		}
		rest = rest[(r.n+7)/8:]
	default:
		for i := range s.Indices {
			s.Indices[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
		}
		rest = rest[4*n:]
	}
	switch {
	case flags&sparseFlagQuant != 0:
		b := uint(s.QuantBits)
		var acc uint64
		var nbits uint
		pos := 0
		for i := range s.Values {
			for nbits < b {
				acc |= uint64(rest[pos]) << nbits
				pos++
				nbits += 8
			}
			chunk := acc & (uint64(1)<<b - 1)
			acc >>= b
			nbits -= b
			s.Values[i] = quantValue(chunk&(uint64(1)<<(b-1)-1), chunk>>(b-1), norm, levels)
		}
	case flags&sparseFlagF32 != 0:
		bits := make([]uint32, n)
		for p, l := range lens {
			r := refBits{b: rest}
			if l == nil {
				for i := range bits {
					bits[i] |= uint32(r.getLSB(8)) << (8 * p)
				}
			} else {
				codes := refCanonical(l)
				for i := range bits {
					code, length := uint64(0), uint8(0)
					for sym := -1; sym < 0; {
						code, length = code<<1|r.get(), length+1
						for c := 0; c < 256; c++ {
							if l[c] == length && codes[c] == code {
								sym = c
							}
						}
						if sym >= 0 {
							bits[i] |= uint32(sym) << (8 * p)
						}
					}
				}
			}
			rest = rest[(r.n+7)/8:]
		}
		for i, u := range bits {
			s.Values[i] = float64(math.Float32frombits(u))
		}
	default:
		for i := range s.Values {
			s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
	}
	return s
}

// wireSpecials64 are values only the f64 run carries: NaN payloads a
// float32 would lose (a raw run must keep them), float64 subnormals and
// the neighbours of MaxFloat32 past it.
var wireSpecials64 = []float64{
	math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0001),
	math.Float64frombits(0x7ff0_0000_0000_0001), 5e-324, -5e-324, math.MaxFloat64,
	math.Nextafter(math.MaxFloat32, math.Inf(1)), -math.Nextafter(math.MaxFloat32, math.Inf(1)), 0.1,
}

// wireSpecials32 are values the f32 run carries exactly: ±0, ±Inf, float32
// subnormals, MaxFloat32 and its neighbour below, and a quiet NaN whose
// payload a float32 holds.
var wireSpecials32 = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, float64(math.Nextafter32(math.MaxFloat32, 0)),
	math.Float64frombits(0x7ff8_0000_2000_0000), math.Float64frombits(0xfff8_0000_0000_0000),
}

// wireMessage draws an n-coordinate message of dimension dim in the given
// index layout ("raw", "ascending" or "dense") whose values are exact
// float32s or not, with specials mixed in.
func wireMessage(r *stats.RNG, n, dim int, indices string, f32 bool) *Sparse {
	s := &Sparse{Dim: dim, Indices: make([]int32, n), Values: make([]float64, n)}
	switch indices {
	case "dense":
		s.Dim = n
		for i := range s.Indices {
			s.Indices[i] = int32(i)
		}
	case "ascending":
		step := max(dim/max(n, 1), 1)
		for i := range s.Indices {
			s.Indices[i] = int32(i*step + r.Intn(step))
		}
	default:
		for i := range s.Indices {
			s.Indices[i] = int32(r.Intn(dim))
		}
		if n >= 2 && s.Indices[0] < s.Indices[1] {
			s.Indices[0], s.Indices[1] = s.Indices[1], s.Indices[0] // never ascending
		}
	}
	for i := range s.Values {
		v := r.Norm() * math.Ldexp(1, r.Intn(40)-20)
		switch {
		case r.Intn(5) == 0 && f32:
			v = wireSpecials32[r.Intn(len(wireSpecials32))]
		case r.Intn(5) == 0:
			v = append(wireSpecials32, wireSpecials64...)[r.Intn(len(wireSpecials32)+len(wireSpecials64))]
		case f32:
			v = float64(float32(v))
		}
		s.Values[i] = v
	}
	if !f32 && n > 0 {
		s.Values[r.Intn(n)] = wireSpecials64[r.Intn(len(wireSpecials64))] // rules the f32 layout out
	}
	return s
}

// TestSparseWireMatchesElementLoops pins the block-copy runs to the
// element loops they replace, at every dispatch level: for every index ×
// value layout (raw, ascending and dense × f32 and f64) and the quantized
// one, at every length 0–33 and at 1 000 and 20 000 coordinates, the
// encoder writes the element loops' bytes — whole, and streamed through
// chunks that hold a run only in pieces — and the decoder reads back the
// element loops' message, which is the sent one bit for bit.
func TestSparseWireMatchesElementLoops(t *testing.T) {
	sizes := []int{1000, 20000}
	for n := 0; n <= 33; n++ {
		sizes = append(sizes, n)
	}
	r := stats.NewRNG(61)
	forEachLevel(t, func(level string) {
		var scratch Sparse
		for _, n := range sizes {
			for _, indices := range []string{"raw", "ascending", "dense"} {
				for _, f32 := range []bool{true, false} {
					s := wireMessage(r, n, 4*n+7, indices, f32)
					checkWire(t, fmt.Sprintf("%s %s f32=%v n=%d", level, indices, f32, n), s, &scratch)
				}
			}
			q := wireMessage(r, n, 4*n+7, "raw", true)
			q.QuantBits, q.QuantLevels, q.QuantNorm = QuantBitsFor(5), 5, 2
			for i, v := range q.Values {
				l, sign := quantLevel(v, 2, 5)
				q.Values[i] = quantValue(l, sign, 2, 5)
			}
			checkWire(t, fmt.Sprintf("%s quantized n=%d", level, n), q, &scratch)
		}
	})
}

func checkWire(t *testing.T, name string, s, scratch *Sparse) {
	t.Helper()
	want := refAppendBinary(s)
	got := s.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendBinary differs from the element loops (%d vs %d bytes)", name, len(got), len(want))
	}
	for _, chunk := range []int{16, 37, 4096} {
		var w bytes.Buffer
		if err := s.EncodeBinaryTo(&w, make([]byte, chunk), nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%s: EncodeBinaryTo through a %d-byte chunk differs from the element loops", name, chunk)
		}
	}
	if err := scratch.DecodeBinaryInto(want); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if ref := refDecodeRuns(want); !sameSparse(scratch, ref) || !sameSparse(scratch, s) {
		t.Fatalf("%s: decoded message differs from the element loops' or the sent one", name)
	}
}

// refValidate and refScrub are Sparse's two integrity passes as they were
// before Check fused them: Validate's scalar bounds walk and Scrub's
// scalar zeroing loop.
func refValidate(s *Sparse, dim int) error {
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

func refScrub(s *Sparse) (n int, maxAbs float64) {
	var m uint64
	for i, v := range s.Values {
		b := math.Float64bits(v) &^ (1 << 63)
		if b >= 0x7ff0000000000000 {
			s.Values[i] = 0
			n++
		} else if b > m {
			m = b
		}
	}
	return n, math.Float64frombits(m)
}

func cloneSparse(s *Sparse) *Sparse {
	if s == nil {
		return nil
	}
	c := *s
	c.Indices = append([]int32(nil), s.Indices...)
	c.Values = append([]float64(nil), s.Values...)
	return &c
}

// TestCheckMatchesValidateScrub pins Check to the two passes it replaces,
// at every dispatch level: on a structural error the same text (the same
// first bad position) with the values untouched; otherwise the same count
// of zeroed values, the same values bit for bit and the same largest kept
// magnitude. Bad indices — negative, dim, past dim, MaxInt32, MinInt32 —
// and non-finite values are planted at every position of a vector step
// and at both ends.
func TestCheckMatchesValidateScrub(t *testing.T) {
	r := stats.NewRNG(62)
	forEachLevel(t, func(level string) {
		try := func(what string, s *Sparse, dim int) {
			t.Helper()
			ref, got := cloneSparse(s), cloneSparse(s)
			wantErr := refValidate(ref, dim)
			n, m, err := got.Check(dim)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || n != 0 || m != 0 {
					t.Fatalf("%s %s: Check = (%d, %v, %v), want error %q", level, what, n, m, err, wantErr)
				}
				if got != nil && !sameSparse(got, s) {
					t.Fatalf("%s %s: Check changed a message it rejected", level, what)
				}
				return
			}
			wantN, wantM := refScrub(ref)
			if err != nil || n != wantN || math.Float64bits(m) != math.Float64bits(wantM) || !sameSparse(got, ref) {
				t.Fatalf("%s %s: Check = (%d, %v, %v), Validate+Scrub (%d, %v)", level, what, n, m, err, wantN, wantM)
			}
		}
		try("nil", nil, 4)
		try("dim mismatch", &Sparse{Dim: 5, Indices: []int32{9}, Values: []float64{math.NaN()}}, 4)
		try("length mismatch", &Sparse{Dim: 4, Indices: []int32{0, 1}, Values: []float64{1}}, 4)
		try("too many", &Sparse{Dim: 2, Indices: []int32{0, 1, 7}, Values: []float64{1, 2, math.Inf(1)}}, 2)
		try("negative dim", &Sparse{Dim: -1}, -1)
		for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 1000, 20000} {
			dim := 2*n + 3
			s := wireMessage(r, n, dim, "raw", false)
			for i, v := range s.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					s.Values[i] = 1.5
				}
			}
			try(fmt.Sprintf("n=%d clean", n), s, dim)
			try(fmt.Sprintf("n=%d all non-finite", n), &Sparse{Dim: dim, Indices: s.Indices,
				Values: func() []float64 {
					v := make([]float64, n)
					for i := range v {
						v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
					}
					return v
				}()}, dim)
			for p := 0; p < min(n, 18); p++ {
				j := p
				if p%2 == 1 {
					j = n - 1 - p/2
				}
				for _, bad := range []int32{-1, int32(dim), int32(dim) + 1, math.MaxInt32, math.MinInt32} {
					c := cloneSparse(s)
					c.Indices[j] = bad
					c.Values[j] = math.NaN() // left untouched on the error
					try(fmt.Sprintf("n=%d index %d at %d", n, bad, j), c, dim)
					if j+1 < n {
						c.Indices[j+1] = -7 // a later bad index: the first one is reported
						try(fmt.Sprintf("n=%d two bad from %d", n, j), c, dim)
					}
				}
				for _, bad := range []float64{math.NaN(), math.Float64frombits(0xfff0_0000_0000_0001), math.Inf(1), math.Inf(-1), math.MaxFloat64, -5e-324} {
					c := cloneSparse(s)
					c.Values[j] = bad
					try(fmt.Sprintf("n=%d value %v at %d", n, bad, j), c, dim)
				}
			}
		}
	})
}

// BenchmarkSparseWire times the ingest path's per-update passes at the
// fleet's shape, 1 000 coordinates into dim 20 000, in the raw u32 + f64
// layout the fleet sends and the raw u32 + f32 one a top-k update takes:
// the encode, the decode, and Check.
func BenchmarkSparseWire(b *testing.B) {
	const dim, nnz = 20000, 1000
	r := stats.NewRNG(63)
	for _, f32 := range []bool{false, true} {
		name := "raw-f64"
		if f32 {
			name = "raw-f32"
		}
		s := wireMessage(r, nnz, dim, "raw", f32)
		for i, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.Values[i] = 0.5
			}
		}
		frame := s.AppendBinary(nil)
		b.Run(name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				frame = s.AppendBinary(frame[:0])
			}
		})
		var got Sparse
		b.Run(name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if err := got.DecodeBinaryInto(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/check", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Check(dim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// weightDeltas returns n float32 weight deltas the way a client's round
// makes them: the difference of two float32 weights, w − lr·g rounded to
// float32 minus w, so each is a multiple of its weight's ulp.
func weightDeltas(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	d := make([]float64, n)
	for i := range d {
		w := float32(0.05 * r.Norm())
		d[i] = float64(float32(float64(w)-1e-3*r.Norm())) - float64(w)
	}
	return d
}

// BenchmarkCodedWire times the coded layouts at the paper CNN's shapes:
// a dense 431 080-value warm-up update (four byte planes) and the DGC
// updates at ratios 8 and 210 (a Rice run and byte planes), and at the
// MLP's 8 554 at ratio 8 (about 540 entries, the size of an async push),
// encoding and decoding each, and reports the frame's size as a share of
// the v5 layout's (varint run and raw float32s) and of WireBytes' charge.
// Its MB/s counts the values' float32 bytes.
func BenchmarkCodedWire(b *testing.B) {
	for _, c := range []struct {
		name  string
		dim   int
		ratio float64
	}{{"dense", 431080, 1}, {"dgc-r8", 431080, 8}, {"dgc-r210", 431080, 210}, {"mlp-dgc-r8", 8554, 8}} {
		g := weightDeltas(c.dim, 81)
		var msg *Sparse
		if c.ratio == 1 {
			msg = Identity{}.Encode(g, 1)
		} else {
			dgc := &DGC{Momentum: 0.9, ClipNorm: 10, MsgClipFactor: 2}
			msg = dgc.Encode(g, c.ratio)
		}
		frame := msg.AppendBinary(nil)
		v5 := sparseBinaryHeader + 4*msg.NNZ()
		if msg.NNZ() != c.dim {
			v5 += v5Run(msg.Indices)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(4 * msg.NNZ()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame = msg.AppendBinary(frame[:0])
			}
			b.ReportMetric(float64(len(frame))/float64(v5), "of-v5")
			b.ReportMetric(float64(len(frame))/float64(msg.WireBytes()), "of-charge")
		})
		var got Sparse
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(4 * msg.NNZ()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := got.DecodeBinaryInto(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// v5Run is the bytes of the varint index run wire v5 sent.
func v5Run(idx []int32) (n int) {
	prev := int32(-1)
	for _, i := range idx {
		n += len(binary.AppendUvarint(nil, uint64(i-prev-1)))
		prev = i
	}
	return n
}
