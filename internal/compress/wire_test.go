package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"adafl/internal/stats"
)

// sameSparse reports whether a and b hold the same message bit for bit.
func sameSparse(a, b *Sparse) bool {
	if a.Dim != b.Dim || len(a.Indices) != len(b.Indices) || len(a.Values) != len(b.Values) ||
		a.QuantBits != b.QuantBits || a.QuantLevels != b.QuantLevels ||
		math.Float64bits(a.QuantNorm) != math.Float64bits(b.QuantNorm) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// layoutFixture is a message and the sflags its content must select.
type layoutFixture struct {
	name  string
	msg   *Sparse
	flags byte
}

// layoutFixtures covers the four index × value layout combinations, the
// quantized layouts, and the edges of each content rule.
func layoutFixtures() []layoutFixture {
	const dim = 1 << 23
	// Gaps from 0 to past 2^21, so the Rice parameter the run takes leaves
	// quotients of many lengths, a unary run past 32 bits among them.
	var gaps []int32
	idx := int32(0)
	gaps = append(gaps, idx)
	for _, step := range []int32{1, 1 << 7, 1<<7 + 1, 1 << 14, 1<<14 + 1, 1 << 21, 1<<21 + 1} {
		idx += step
		gaps = append(gaps, idx)
	}
	f32s := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(float32(0.1 * float64(i+1)))
		}
		return out
	}
	f64s := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.1 * float64(i+1)
		}
		return out
	}
	maxRun := make([]int32, 32)
	for i := range maxRun {
		maxRun[i] = int32(i)
	}
	maxRun[31] = math.MaxInt32 - 1
	oneBad := f32s(8)
	oneBad[5] = 0.1 // not a float32: the whole frame falls back to f64
	r := stats.NewRNG(23)
	g := make([]float64, 300)
	for i := range g {
		g[i] = r.Norm()
	}
	dada := NewDAdaQuant(3, 63, 8, stats.NewRNG(24))
	dada.SetRound(20)

	return []layoutFixture{
		{"ascending+f32", &Sparse{Dim: dim, Indices: gaps, Values: f32s(len(gaps))}, sparseFlagAscending | sparseFlagF32},
		{"ascending+f64", &Sparse{Dim: dim, Indices: gaps, Values: f64s(len(gaps))}, sparseFlagAscending},
		{"raw+f32 (descending run)", &Sparse{Dim: 8, Indices: []int32{7, 3, 0}, Values: f32s(3)}, sparseFlagF32},
		{"raw+f64 (duplicates)", &Sparse{Dim: 8, Indices: []int32{1, 1, 2}, Values: f64s(3)}, 0},
		{"dense+f32", NewSparseDense(f32s(5)), sparseFlagDense | sparseFlagF32},
		{"dense+f64", NewSparseDense([]float64{0.25, -0.5, 1e-300, 42}), sparseFlagDense},
		{"empty", &Sparse{Dim: 5, Indices: []int32{}, Values: []float64{}}, 0},
		{"empty dim 0", &Sparse{Dim: 0, Indices: []int32{}, Values: []float64{}}, sparseFlagDense},
		{"nnz 1 index 0", &Sparse{Dim: 9, Indices: []int32{0}, Values: []float64{-2}}, sparseFlagAscending | sparseFlagF32},
		{"nnz 1 index dim-1, Rice run and parameter no shorter than a u32", &Sparse{Dim: 1 << 20, Indices: []int32{1<<20 - 1}, Values: []float64{3}}, sparseFlagF32},
		{"nnz 2 index dim-1, three-byte Rice run", &Sparse{Dim: 1 << 20, Indices: []int32{1 << 19, 1<<20 - 1}, Values: f32s(2)}, sparseFlagAscending | sparseFlagF32},
		{"index MaxInt32-1 in dim MaxInt32", &Sparse{Dim: math.MaxInt32, Indices: maxRun, Values: f32s(len(maxRun))}, sparseFlagAscending | sparseFlagF32},
		{"index MaxInt32, past dim: raw", &Sparse{Dim: math.MaxInt32, Indices: []int32{5, math.MaxInt32}, Values: f32s(2)}, sparseFlagF32},
		{"sparse Rice run not shorter than u32s", &Sparse{Dim: math.MaxInt32, Indices: []int32{1 << 28, 1 << 30}, Values: f32s(2)}, sparseFlagF32},
		{"one non-f32 value", &Sparse{Dim: 100, Indices: []int32{1, 2, 3, 5, 8, 13, 21, 34}, Values: oneBad}, sparseFlagAscending},
		{"signed zeros", &Sparse{Dim: 4, Indices: []int32{1, 2}, Values: []float64{0, math.Copysign(0, -1)}}, sparseFlagAscending | sparseFlagF32},
		{"f32 subnormal", &Sparse{Dim: 4, Indices: []int32{2}, Values: []float64{float64(math.SmallestNonzeroFloat32)}}, sparseFlagAscending | sparseFlagF32},
		{"f64 subnormal", &Sparse{Dim: 4, Indices: []int32{2}, Values: []float64{math.SmallestNonzeroFloat64}}, sparseFlagAscending},
		{"past MaxFloat32", &Sparse{Dim: 4, Indices: []int32{2}, Values: []float64{1e39}}, sparseFlagAscending},
		{"infinity", &Sparse{Dim: 4, Indices: []int32{2}, Values: []float64{math.Inf(1)}}, sparseFlagAscending | sparseFlagF32},
		{"qsgd", NewQSGD(15, stats.NewRNG(25)).Encode(g, 0), sparseFlagDense | sparseFlagQuant},
		{"dadaquant sparse", dada.Encode(g, 60), sparseFlagAscending | sparseFlagQuant},
		{"quantized raw", &Sparse{Dim: 8, Indices: []int32{6, 2}, Values: []float64{0.5, -1}, QuantBits: 3, QuantLevels: 2, QuantNorm: 1}, sparseFlagQuant},
	}
}

// TestSparseBinaryRoundTrip pins the wire as a lossless transport: every
// fixture takes the layout its content selects, decodes bit for bit,
// reports its size exactly and stays inside the raw layout's bound.
func TestSparseBinaryRoundTrip(t *testing.T) {
	for _, f := range layoutFixtures() {
		raw := f.msg.AppendBinary(nil)
		if raw[8] != f.flags {
			t.Errorf("%s: sflags %#x, want %#x", f.name, raw[8], f.flags)
		}
		if len(raw) != f.msg.BinaryWireSize() {
			t.Errorf("%s: BinaryWireSize %d, encoded %d bytes", f.name, f.msg.BinaryWireSize(), len(raw))
		}
		if bound := SparseBinarySize(f.msg.NNZ()) + sparseQuantHeader; len(raw) > bound {
			t.Errorf("%s: %d bytes exceed the bound %d", f.name, len(raw), bound)
		}
		var got Sparse
		if err := got.DecodeBinaryInto(raw); err != nil {
			t.Fatalf("%s: decode: %v", f.name, err)
		}
		if !sameSparse(&got, f.msg) {
			t.Errorf("%s: decoded %+v, want %+v", f.name, got, *f.msg)
		}
		// Appending after existing bytes leaves them alone.
		if pre := f.msg.AppendBinary([]byte{0xAA, 0xBB}); !bytes.Equal(pre[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(pre[2:], raw) {
			t.Errorf("%s: AppendBinary onto a prefix differs", f.name)
		}
	}
}

// TestSparseBinaryRiceRun pins a small section's bytes: the Rice
// parameter the run takes (5: its 31 bits tie with 6's, and the smaller
// wins), the planes' modes (all raw: four values are too few to code),
// the gaps 3, 0, 127, 128 as unary quotients and five-bit remainders,
// least significant bit first, and the planes low byte first.
func TestSparseBinaryRiceRun(t *testing.T) {
	msg := &Sparse{Dim: 1 << 20, Indices: []int32{3, 4, 4 + 128, 4 + 128 + 129}, Values: []float64{1, 2, 3, 4}}
	raw := msg.AppendBinary(nil)
	want := []byte{
		5,                      // k
		0,                      // modes: four raw planes
		0x47, 0x80, 0x1f, 0x02, // 1 00011 | 1 00000 | 0001 11111 | 00001 00000
		0, 0, 0, 0, 0, 0, 0, 0, // planes 0 and 1 of 1.0, 2.0, 3.0, 4.0
		0x80, 0, 0x40, 0x80, // plane 2
		0x3f, 0x40, 0x40, 0x40, // plane 3
	}
	if got := raw[sparseBinaryHeader:]; !bytes.Equal(got, want) {
		t.Fatalf("section after its header % x, want % x", got, want)
	}
}

// TestSparseBinaryDenseOmitsIndices pins the dense-identity optimisation:
// an identity-index message drops its index run and reconstructs it.
func TestSparseBinaryDenseOmitsIndices(t *testing.T) {
	dense := NewSparseDense(make([]float64, 100))
	sparse := &Sparse{Dim: 100, Indices: make([]int32, 100), Values: make([]float64, 100)}
	for i := range sparse.Indices {
		sparse.Indices[i] = int32(99 - i) // same nnz, non-identity order
	}
	if d, s := dense.BinaryWireSize(), sparse.BinaryWireSize(); d >= s {
		t.Fatalf("dense encoding %d bytes not smaller than explicit %d", d, s)
	}
	var got Sparse
	if err := got.DecodeBinaryInto(dense.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	for i, idx := range got.Indices {
		if int(idx) != i {
			t.Fatalf("reconstructed index %d = %d", i, idx)
		}
	}
}

// TestSparseBinaryDecodeReuse pins the zero-allocation contract: decoding
// into a Sparse whose slices have capacity must not allocate.
func TestSparseBinaryDecodeReuse(t *testing.T) {
	msg := &Sparse{Dim: 1000, Indices: make([]int32, 64), Values: make([]float64, 64)}
	for i := range msg.Indices {
		msg.Indices[i] = int32(i * 15)
		msg.Values[i] = float64(i) * 0.5
	}
	raw := msg.AppendBinary(nil)
	scratch := &Sparse{Indices: make([]int32, 0, 64), Values: make([]float64, 0, 64)}
	if err := scratch.DecodeBinaryInto(raw); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.DecodeBinaryInto(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeBinaryInto allocates %.1f per op with capacity available", allocs)
	}
}

// TestSparseBinaryStreamMatchesAppend: the streaming encoder and the
// appending encoder must produce identical bytes for every layout, down
// to the 16-byte scratch floor that forces partial runs everywhere, and
// the size reported to begin is the number of bytes that follow.
func TestSparseBinaryStreamMatchesAppend(t *testing.T) {
	long := &Sparse{Dim: 500, Indices: make([]int32, 97), Values: make([]float64, 97)}
	for i := range long.Indices {
		long.Indices[i] = int32(i * 5)
		long.Values[i] = float64(i) - 48.5
	}
	fixtures := append(layoutFixtures(), layoutFixture{name: "97 coordinates", msg: long})
	for _, f := range fixtures {
		want := f.msg.AppendBinary(nil)
		for _, chunkLen := range []int{16, 24, 64, 4096} {
			var buf bytes.Buffer
			announced := -1
			err := f.msg.EncodeBinaryTo(&buf, make([]byte, chunkLen), func(size int) error {
				if buf.Len() != 0 {
					t.Errorf("%s: begin called after %d bytes", f.name, buf.Len())
				}
				announced = size
				return nil
			})
			if err != nil {
				t.Fatalf("%s chunk %d: %v", f.name, chunkLen, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s chunk %d: streamed bytes differ from AppendBinary", f.name, chunkLen)
			}
			if announced != len(want) {
				t.Fatalf("%s chunk %d: begin got size %d, frame is %d", f.name, chunkLen, announced, len(want))
			}
		}
	}
	boom := errors.New("boom")
	var buf bytes.Buffer
	if err := long.EncodeBinaryTo(&buf, make([]byte, 64), func(int) error { return boom }); err != boom || buf.Len() != 0 {
		t.Fatalf("begin's error: got %v after %d bytes, want boom before any", err, buf.Len())
	}
}

// sparseFrame hand-builds a plain frame: header, then the parts verbatim.
func sparseFrame(dim, nnz uint32, flags byte, parts ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, dim)
	b = binary.LittleEndian.AppendUint32(b, nnz)
	b = append(b, flags)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// riceRun is the Rice run of the gaps of idx under parameter k, written
// bit by bit.
func riceRun(k uint, idx ...int64) []byte {
	var w refBits
	prev := int64(-1)
	for _, i := range idx {
		g := uint64(i - prev - 1)
		prev = i
		for q := g >> k; q > 0; q-- {
			w.put(0)
		}
		w.put(1)
		w.putLSB(g, int(k))
	}
	return w.b
}

// rawPlanes is the four raw byte planes of vals.
func rawPlanes(vals ...float32) (b []byte) {
	for p := 0; p < 4; p++ {
		for _, v := range vals {
			b = append(b, byte(math.Float32bits(v)>>(8*p)))
		}
	}
	return b
}

// TestRiceWordsStopBelowDim: the word decoder, under parameter 0 (one bit
// per index here) and 1, stores the indices below dim and returns the
// first index at dim without storing it, the bits after its code held.
func TestRiceWordsStopBelowDim(t *testing.T) {
	for _, k := range []uint{0, 1} {
		run := riceRun(k, 0, 1, 2, 3, 4, 5, 6, 7)
		run = append(run, make([]byte, 8)...)
		idx := []int32{-1, -1, -1, -1, -1, -1, -1, -1}
		i, prev, _, n, _ := riceWords(idx, k, 5, -1, 0, 0, run)
		want := []int32{0, 1, 2, 3, 4, -1, -1, -1}
		if i != 5 || prev != 5 || !slices.Equal(idx, want) || n != 56-6*(k+1) {
			t.Fatalf("k %d: decoded %d (%v), stopped at %d with %d bits held; want 5 (%v), 5 and %d", k, i, idx, prev, n, want, 56-6*(k+1))
		}
	}
}

func TestSparseBinaryDecodeMalformed(t *testing.T) {
	u32 := func(vs ...uint32) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f64 := func(vs ...float64) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	quantHdr := append(u32(2), f64(1)...) // levels 2 (3 bits), norm 1
	const asc, f32f = sparseFlagAscending, sparseFlagF32
	k0 := []byte{0, 0} // Rice parameter 0, four raw planes

	// The well-formed twins of the cases below decode, so each case fails
	// for the reason it names and not for a slip in the hand-built bytes.
	good := map[string][]byte{
		"raw":           sparseFrame(8, 2, 0, u32(1, 2), f64(3, 4)),
		"ascending f32": sparseFrame(8, 2, asc|f32f, k0, riceRun(0, 1, 2), rawPlanes(3, 4)),
		"ascending max": sparseFrame(math.MaxInt32, 1, asc|f32f, []byte{30, 0}, riceRun(30, math.MaxInt32-1), rawPlanes(3)),
		"quant raw":     sparseFrame(8, 2, sparseFlagQuant, quantHdr, u32(1, 2), []byte{0x0A}),
		"quant rice":    sparseFrame(8, 2, sparseFlagQuant|asc, quantHdr, []byte{0}, riceRun(0, 1, 2), []byte{0x0A}),
	}
	for name, data := range good {
		var s Sparse
		if err := s.DecodeBinaryInto(data); err != nil {
			t.Fatalf("well-formed %s frame rejected: %v", name, err)
		}
	}

	raw, ascGood := good["raw"], good["ascending f32"]
	cases := map[string]struct {
		data      []byte
		truncated bool
	}{
		"empty":         {nil, true},
		"short header":  {raw[:5], true},
		"cut mid-index": {raw[:sparseBinaryHeader+2], true},
		"cut mid-value": {raw[:len(raw)-3], true},
		"trailing junk": {append(append([]byte(nil), raw...), 0xEE), false},
		// nnz claims more coordinates than the payload carries: must be
		// rejected before any allocation is sized from it.
		"oversized nnz":              {sparseFrame(8, math.MaxUint32, 0, u32(1, 2), f64(3, 4)), true},
		"nnz past dim, ascending":    {sparseFrame(8, 9, asc|f32f, k0, riceRun(0, 1, 2), rawPlanes(3, 4)), false},
		"dense flag with nnz != dim": {sparseFrame(8, 2, sparseFlagDense, f64(3, 4)), false},
		"dim overflows int32":        {sparseFrame(1<<31, 0, 0), false},
		"unknown flag bit":           {sparseFrame(8, 2, 1<<4, u32(1, 2), f64(3, 4)), false},
		"all flag bits":              {sparseFrame(8, 2, 0xFF, u32(1, 2), f64(3, 4)), false},
		"dense + ascending":          {sparseFrame(2, 2, sparseFlagDense|asc, f64(3, 4)), false},
		"quantized + f32":            {sparseFrame(8, 2, sparseFlagQuant|f32f, quantHdr, u32(1, 2), []byte{0x0A}), false},
		"ascending cut in the head":  {ascGood[:sparseBinaryHeader+1], true},
		"ascending without its run":  {sparseFrame(8, 2, asc|f32f, k0, rawPlanes(3, 4)), true},
		"ascending cut mid-value":    {ascGood[:len(ascGood)-1], true},
		"ascending trailing junk":    {sparseFrame(8, 2, asc|f32f, k0, riceRun(0, 1, 2), []byte{0}, rawPlanes(3, 4)), false},
		"Rice parameter past 31":     {sparseFrame(8, 1, asc|f32f, []byte{32, 0}, riceRun(0, 1), rawPlanes(3)), false},
		"unary run past dim":         {sparseFrame(4, 1, asc|f32f, k0, []byte{0}, rawPlanes(3)), false},
		"index past dim":             {sparseFrame(8, 1, asc|f32f, []byte{3, 0}, riceRun(3, 8), rawPlanes(3)), false},
		"Rice code past the run":     {sparseFrame(64, 2, asc|f32f, []byte{3, 0}, []byte{0xE2}, rawPlanes(3, 4)), true},
		"unknown plane coding":       {sparseFrame(8, 2, asc|f32f, []byte{0, 2}, riceRun(0, 1, 2), rawPlanes(3, 4)), false},
		"quantized level past count": {sparseFrame(8, 2, sparseFlagQuant, quantHdr, u32(1, 2), []byte{0x0B}), false},
	}
	for name, c := range cases {
		var s Sparse
		err := s.DecodeBinaryInto(c.data)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if got := errors.Is(err, ErrBinaryTruncated); got != c.truncated {
			t.Errorf("%s: err = %v, truncated = %v, want %v", name, err, got, c.truncated)
		}
	}
}

// codedPlaneFrame hand-builds a dense f32 section of len(vals) values
// whose plane 0 is coded under lens as stream (declared len bytes) and
// whose other planes are raw.
func codedPlaneFrame(lens *[256]uint8, declared int, stream []byte, vals ...float32) []byte {
	n := uint32(len(vals))
	table := binary.AppendUvarint(refTable(lens), uint64(declared))
	return sparseFrame(n, n, sparseFlagDense|sparseFlagF32, []byte{1}, table, stream, rawPlanes(vals...)[len(vals):])
}

// TestSparseBinaryHostileCodedPlanes: a coded byte plane whose code
// lengths break Kraft's inequality either way, run past the 256 symbols,
// exceed the longest code or leave a padding nibble set, or whose stream
// length disagrees with nnz — shorter or longer than nnz symbols can
// take, or holding bytes they do not read — is an ErrMalformed error,
// never a panic; the well-formed frame they are built from decodes.
func TestSparseBinaryHostileCodedPlanes(t *testing.T) {
	two := new([256]uint8) // symbols 0 and 1, one bit each
	two[0], two[1] = 1, 1
	over := *two // a third one-bit code: Kraft's sum 3/2
	over[7] = 1
	under := *two // 0 and 1 at two bits: Kraft's sum 1/2
	under[0], under[1] = 2, 2
	three := new([256]uint8) // 0 at one bit, 1 and 2 at two: an odd nibble count
	three[0], three[1], three[2] = 1, 2, 2
	vals := []float32{1, 1, 1, 1} // plane 0 all zero bytes: four one-bit codes
	var s Sparse
	if err := s.DecodeBinaryInto(codedPlaneFrame(two, 1, []byte{0}, vals...)); err != nil || s.Values[3] != 1 {
		t.Fatalf("well-formed coded frame: %v, values %v", err, s.Values)
	}
	if err := s.DecodeBinaryInto(codedPlaneFrame(three, 1, []byte{0}, vals...)); err != nil || s.Values[3] != 1 {
		t.Fatalf("well-formed coded frame with a padding nibble: %v, values %v", err, s.Values)
	}
	oddTable := codedPlaneFrame(three, 1, []byte{0}, vals...)
	oddTable[sparseBinaryHeader+1+17] |= 0x50 // the table's 35th nibble, its padding
	long := *two
	long[9] = 12
	wide := codedPlaneFrame(two, 1, []byte{0}, vals...)
	wide[sparseBinaryHeader+1+16] = 0xF0 // the last run: 16 absent symbols from 240, past 255
	many := make([]float32, 16)
	for i := range many {
		many[i] = 1
	}
	cases := map[string][]byte{
		"Kraft's sum over 1":         codedPlaneFrame(&over, 1, []byte{0}, vals...),
		"Kraft's sum under 1":        codedPlaneFrame(&under, 1, []byte{0}, vals...),
		"code length past 11":        codedPlaneFrame(&long, 1, []byte{0}, vals...),
		"table past symbol 255":      wide,
		"padding nibble set":         oddTable,
		"stream shorter than nnz":    codedPlaneFrame(two, 0, nil, vals...),
		"stream longer than nnz":     codedPlaneFrame(two, 2, []byte{0, 0}, vals...),
		"stream with unread bytes":   codedPlaneFrame(two, 4, []byte{0, 0, 0, 0}, many...),
		"stream length overflows":    codedPlaneFrame(two, 1<<35, []byte{0}, vals...),
		"stream cut, length kept":    codedPlaneFrame(two, 1, nil, vals...),
		"stream past the section":    codedPlaneFrame(two, 1, []byte{0, 0}, vals...),
		"two coded planes, one cut":  sparseFrame(4, 4, sparseFlagDense|sparseFlagF32, []byte{5}, binary.AppendUvarint(refTable(two), 1)),
		"table cut mid-run":          codedPlaneFrame(two, 1, []byte{0}, vals...)[:sparseBinaryHeader+1+5],
		"table cut before its first": codedPlaneFrame(two, 1, []byte{0}, vals...)[:sparseBinaryHeader+1],
	}
	for name, data := range cases {
		var s Sparse
		if err := s.DecodeBinaryInto(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		for _, max := range []int{1, 3, 64} {
			next, _ := pieces(data, max)
			if _, _, err := ReadSupport(funcPieces(next), int64(len(data)), 4, nil, nil); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: ReadSupport (pieces of %d): err = %v, want ErrMalformed", name, max, err)
			}
		}
	}
}

// codedFrames are sections that take every coded layout: dense and
// ascending f32 sections whose planes code, a Rice run under f64 values,
// and a quantized one after a Rice run.
func codedFrames() map[string]*Sparse {
	r := stats.NewRNG(91)
	const dim = 12000
	g := make([]float64, dim)
	for i := range g {
		g[i] = float64(float32(0.01 * r.Norm()))
	}
	dada := NewDAdaQuant(3, 63, 8, stats.NewRNG(92))
	dada.SetRound(20)
	asc64 := SelectTopK(g, dim/10)
	for i := range asc64.Values {
		asc64.Values[i] += 1e-12
	}
	return map[string]*Sparse{
		"dense f32 coded":     Identity{}.Encode(g, 1),
		"ascending f32 coded": SelectTopK(g, dim/8),
		"ascending f64":       asc64,
		"quantized ascending": dada.Encode(g, 60),
	}
}

// TestSparseBinaryCodedTruncatedAtEveryByte: every proper prefix of every
// coded layout, and every frame with one more byte, is an ErrMalformed
// error, never a panic, from DecodeBinaryInto and, for the layouts a
// vector section takes, from ReadSupport too.
func TestSparseBinaryCodedTruncatedAtEveryByte(t *testing.T) {
	for name, msg := range codedFrames() {
		full := msg.AppendBinary(nil)
		if name != "ascending f64" && name != "quantized ascending" {
			if full[8]&sparseFlagF32 == 0 || full[sparseBinaryHeader+int(full[8]>>2&1)]&0x55 == 0 {
				t.Fatalf("%s: sflags %#x, planes %#x: no coded plane", name, full[8], full[sparseBinaryHeader+1])
			}
		}
		var s Sparse
		if err := s.DecodeBinaryInto(full); err != nil || !sameSparse(&s, msg) {
			t.Fatalf("%s: whole frame: %v", name, err)
		}
		for cut := 0; cut <= len(full); cut++ {
			data := full[:cut]
			if cut == len(full) {
				data = append(append([]byte(nil), full...), 0)
			}
			if err := s.DecodeBinaryInto(data); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s cut at %d of %d: err = %v", name, cut, len(full), err)
			}
			if msg.quantized() {
				continue
			}
			next, _ := pieces(data, 7)
			if _, _, err := ReadSupport(funcPieces(next), int64(len(data)), msg.Dim, nil, nil); !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s cut at %d of %d: ReadSupport err = %v", name, cut, len(full), err)
			}
		}
	}
}

// assignableCodecs builds one instance of every codec a client can be
// assigned, the way rpc's newUplinkCodec does.
func assignableCodecs() map[string]Codec {
	return map[string]Codec{
		"identity":  Identity{},
		"topk":      &TopK{},
		"dgc":       &DGC{Momentum: 0.9, ClipNorm: 10, MsgClipFactor: 2},
		"qsgd":      NewQSGD(15, stats.NewRNG(1)),
		"terngrad":  NewTernGrad(stats.NewRNG(2)),
		"dadaquant": NewDAdaQuant(15, 63, 8, stats.NewRNG(3)),
	}
}

// TestBinaryWireSizeMatchesWireBytes pins the two accountings together
// (ROADMAP item 3): what the planner, the negotiator and the simulator
// charge for an update (WireBytes, the paper's 4 B per value and per
// index) bounds what the frame really weighs, within the header — +1 for
// a plain frame, +9 for the f64 norm and u32 level count of a quantized
// one — for every assignable codec across the ratio ladder, at the MLP's
// and the paper CNN's dimensions.
func TestBinaryWireSizeMatchesWireBytes(t *testing.T) {
	for _, dim := range []int{8554, 431080} {
		r := stats.NewRNG(uint64(dim))
		g := make([]float64, dim)
		for i := range g {
			g[i] = 0.01 * r.Norm()
		}
		for name, codec := range assignableCodecs() {
			for _, ratio := range []float64{1, 4, 8, 16, 32, 64, 128, 210} {
				msg := codec.Encode(g, ratio)
				if got, charge := msg.BinaryWireSize(), msg.WireBytes(); got > charge+9 {
					t.Errorf("%s dim %d ratio %v: frame %d B, WireBytes charges %d", name, dim, ratio, got, charge)
				}
			}
		}
	}
	// The paper's Table I: an uncompressed 431k-parameter gradient is
	// 1.64 MB, 4 B per parameter. That is what WireBytes charges; the
	// frame carries the same values in fewer bytes when their planes code.
	const dim = 431080
	r := stats.NewRNG(7)
	g := make([]float64, dim)
	for i := range g {
		g[i] = 0.01 * r.Norm()
	}
	msg := (Identity{}).Encode(g, 1)
	if got, charge := msg.BinaryWireSize(), msg.WireBytes(); charge != 8+4*dim || got >= charge {
		t.Errorf("dense identity update at %d: WireBytes %d (want %d), frame %d B", dim, charge, 8+4*dim, got)
	}
}

// FuzzSparseBinary: arbitrary bytes never panic the decoder and never
// make it allocate past what len(data) justifies; any frame it accepts
// decodes to what the element loops read from it, re-encodes to the
// element loops' bytes, and decode(encode(s)) is s bit for bit.
func FuzzSparseBinary(f *testing.F) {
	for _, fx := range layoutFixtures() {
		f.Add(fx.msg.AppendBinary(nil))
	}
	// Odd-length raw runs, past every vector width's multiple, with NaN
	// payloads in the f64 ones.
	r := stats.NewRNG(29)
	for _, n := range []int{1, 3, 5, 9, 17, 33} {
		for _, f32 := range []bool{false, true} {
			f.Add(wireMessage(r, n, 4*n+7, "raw", f32).AppendBinary(nil))
		}
	}
	// Coded sections: byte planes and Rice runs, whole and cut in their
	// head and in their runs.
	for _, msg := range codedFrames() {
		raw := msg.AppendBinary(nil)
		f.Add(raw)
		f.Add(raw[:sparseBinaryHeader+3])
		f.Add(raw[:len(raw)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sparse
		if err := s.DecodeBinaryInto(data); err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode error %v does not wrap ErrMalformed", err)
			}
			return
		}
		// The densest accepted layout is dense + quantized at 2 bits per
		// coordinate: four coordinates per payload byte.
		if max := 4 * len(data); len(s.Indices) > max || len(s.Values) > max {
			t.Fatalf("%d-byte frame decoded to %d indices, %d values", len(data), len(s.Indices), len(s.Values))
		}
		if !sameSparse(&s, refDecodeRuns(data)) {
			t.Fatalf("decoded message differs from the element loops'")
		}
		enc := s.AppendBinary(nil)
		if !bytes.Equal(enc, refAppendBinary(&s)) {
			t.Fatalf("re-encoded frame differs from the element loops'")
		}
		var again Sparse
		if err := again.DecodeBinaryInto(enc); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !sameSparse(&again, &s) {
			t.Fatalf("re-encode changed the message: %+v vs %+v", again, s)
		}
	})
}

// TestDecodeScratchShrinks: a dense update grows DecodeBinaryInto's
// scratch to the model's dimension; the next update needing under a
// quarter of it leaves the scratch at that update's size, and a stream of
// equal-size updates never reallocates it. Below shrinkFloor nothing
// shrinks.
func TestDecodeScratchShrinks(t *testing.T) {
	const dim = 100000
	r := stats.NewRNG(17)
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.Norm()
	}
	var s Sparse
	if err := s.DecodeBinaryInto(Identity{}.Encode(g, 1).AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if cap(s.Indices) != dim || cap(s.Values) != dim {
		t.Fatalf("dense decode: scratch %d/%d, want %d", cap(s.Indices), cap(s.Values), dim)
	}
	sparse := SelectTopK(g, dim/8).AppendBinary(nil)
	if err := s.DecodeBinaryInto(sparse); err != nil {
		t.Fatal(err)
	}
	if cap(s.Indices) != dim/8 || cap(s.Values) != dim/8 {
		t.Fatalf("sparse decode after dense: scratch %d/%d, want %d", cap(s.Indices), cap(s.Values), dim/8)
	}
	idx, vals := &s.Indices[0], &s.Values[0]
	if err := s.DecodeBinaryInto(sparse); err != nil {
		t.Fatal(err)
	}
	if &s.Indices[0] != idx || &s.Values[0] != vals {
		t.Fatal("an equal-size update reallocated the scratch")
	}
	small := SelectTopK(g, 10).AppendBinary(nil)
	var f Sparse
	if err := f.DecodeBinaryInto(SelectTopK(g, shrinkFloor).AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.DecodeBinaryInto(small); err != nil {
		t.Fatal(err)
	}
	if cap(f.Values) != shrinkFloor {
		t.Fatalf("scratch of %d values (the floor) shrank to %d", shrinkFloor, cap(f.Values))
	}
}

// TestSparseBinaryCodedRoundTrip is the coded layouts' round-trip table:
// signed zeros, NaN payloads, infinities, float32 subnormals, values all
// equal, one entry, dim entries, a gap of dim−1 and one whose unary run
// outgrows a word, every byte plane both coded and raw, and a section
// too short to code. Each section
// decodes bit for bit through DecodeBinaryInto, with the byte-plane
// kernels and without, and through ReadSupport in pieces of 1, 7 and
// 4096 bytes; the modes byte shows the planes took the coding the case
// is about.
func TestSparseBinaryCodedRoundTrip(t *testing.T) {
	f32s := func(bits ...uint32) []float64 {
		out := make([]float64, 0, 2*planeCodeMin)
		for len(out) < 2*planeCodeMin {
			for _, b := range bits {
				out = append(out, float64(math.Float32frombits(b)))
			}
		}
		return out
	}
	r := stats.NewRNG(93)
	lowZero, allRandom := make([]float64, 2000), make([]float64, 2000)
	for i := range lowZero {
		lowZero[i] = float64(math.Float32frombits(uint32(r.Uint64()) &^ 0xff)) // planes 1–3 random, plane 0 zero
		allRandom[i] = float64(math.Float32frombits(uint32(r.Uint64())))
	}
	longGap := make([]int32, 65)
	for i := range longGap {
		longGap[i] = int32(i)
	}
	longGap[64] = 1<<24 - 1
	const (
		coded = 0x55 // every plane Huffman-coded
		raw   = 0x00
	)
	cases := []struct {
		name  string
		msg   *Sparse
		modes int // the modes byte the section must carry; -1: not f32
	}{
		{"signed zeros", NewSparseDense(f32s(0, 0x80000000)), coded},
		{"NaN payloads", NewSparseDense(f32s(0x7fc00001, 0xffc0abcd, 0x7fc12345)), coded},
		{"infinities", NewSparseDense(f32s(0x7f800000, 0xff800000, 0x3f800000)), coded},
		{"float32 subnormals", NewSparseDense(f32s(1, 0x80000001, 0x007fffff, 0x00400000)), coded},
		{"all equal", NewSparseDense(f32s(0x3fc00000)), coded},
		{"one entry", &Sparse{Dim: 1000, Indices: []int32{500}, Values: []float64{-2.5}}, raw},
		{"dim entries, raw planes", NewSparseDense([]float64{1, -2, 3.5, float64(float32(1e-30))}), raw},
		{"dim entries, low plane coded", NewSparseDense(lowZero), 0x01},
		{"dim entries, all random", NewSparseDense(allRandom), raw},
		{"gap of dim-1", &Sparse{Dim: 64, Indices: []int32{63}, Values: []float64{7}}, raw},
		{"gap past a word's unary run", &Sparse{Dim: 1 << 24, Indices: longGap, Values: f32s(0x3f800000)[:65]}, raw},
		{"too few values to code", NewSparseDense(f32s(0x3fc00000)[:planeCodeMin-1]), raw},
		{"ascending f64", &Sparse{Dim: 1 << 20, Indices: []int32{3, 9, 700, 1 << 19}, Values: []float64{0.1, -0.2, 0.3, math.Inf(1)}}, -1},
	}
	for _, c := range cases {
		raw := c.msg.AppendBinary(nil)
		var h sectionHead
		in := byteSource{b: raw}
		if err := h.read(&in); err != nil {
			t.Fatalf("%s: head: %v", c.name, err)
		}
		if h.f32() {
			if got := int(raw[sparseBinaryHeader+int(raw[8]>>2&1)]); got != c.modes {
				t.Errorf("%s: planes' modes %#x, want %#x", c.name, got, c.modes)
			}
		} else if c.modes != -1 {
			t.Errorf("%s: sflags %#x, want f32", c.name, raw[8])
		}
		for _, kernels := range []bool{false, true} {
			func() {
				defer func(on bool) { planeKernels = on }(planeKernels)
				planeKernels = kernels && planeKernels
				var got Sparse
				if err := got.DecodeBinaryInto(raw); err != nil || !sameSparse(&got, c.msg) {
					t.Fatalf("%s (kernels %v): decoded %v, %v", c.name, kernels, got.Values[:min(4, len(got.Values))], err)
				}
			}()
		}
		for _, max := range []int{1, 7, 4096} {
			next, taken := pieces(raw, max)
			idx, vals, err := ReadSupport(funcPieces(next), int64(len(raw)), c.msg.Dim, nil, nil)
			if err != nil || *taken != len(raw) {
				t.Fatalf("%s: ReadSupport (pieces of %d): %v after %d of %d bytes", c.name, max, err, *taken, len(raw))
			}
			got := &Sparse{Dim: c.msg.Dim, Indices: idx, Values: vals}
			if idx == nil {
				got = NewSparseDense(vals)
			}
			if !sameSparse(got, c.msg) {
				t.Fatalf("%s: ReadSupport (pieces of %d) returned another vector", c.name, max)
			}
		}
	}
}
