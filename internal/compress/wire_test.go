package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
	// Gaps on both sides of each varint length boundary: gap-1 is what
	// travels, so index steps of 2^7 and 2^7+1 straddle one and two bytes.
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
		{"nnz 1 index dim-1", &Sparse{Dim: 1 << 20, Indices: []int32{1<<20 - 1}, Values: []float64{3}}, sparseFlagAscending | sparseFlagF32},
		{"nnz 1 index dim-1, four-byte varint", &Sparse{Dim: dim, Indices: []int32{dim - 1}, Values: []float64{3}}, sparseFlagF32},
		{"index MaxInt32", &Sparse{Dim: math.MaxInt32, Indices: []int32{5, math.MaxInt32}, Values: f32s(2)}, sparseFlagAscending | sparseFlagF32},
		{"sparse varint run not shorter than u32s", &Sparse{Dim: math.MaxInt32, Indices: []int32{1 << 28, 1 << 30}, Values: f32s(2)}, sparseFlagF32},
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

// TestSparseBinaryVarintRun pins the index run's bytes: first index, then
// gap-1 per index, as uvarints.
func TestSparseBinaryVarintRun(t *testing.T) {
	msg := &Sparse{Dim: 1 << 20, Indices: []int32{3, 4, 4 + 128, 4 + 128 + 129}, Values: []float64{1, 2, 3, 4}}
	raw := msg.AppendBinary(nil)
	want := []byte{3, 0, 127, 0x80, 0x01}
	run := raw[sparseBinaryHeader : len(raw)-4*4]
	if !bytes.Equal(run, want) {
		t.Fatalf("index run % x, want % x", run, want)
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
	f32 := func(vs ...float32) (b []byte) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	quantHdr := append(u32(2), f64(1)...) // levels 2 (3 bits), norm 1
	const asc, f32f = sparseFlagAscending, sparseFlagF32

	// The well-formed twins of the cases below decode, so each case fails
	// for the reason it names and not for a slip in the hand-built bytes.
	good := map[string][]byte{
		"raw":           sparseFrame(8, 2, 0, u32(1, 2), f64(3, 4)),
		"ascending f32": sparseFrame(8, 2, asc|f32f, []byte{1, 0}, f32(3, 4)),
		"ascending max": sparseFrame(math.MaxInt32, 1, asc|f32f, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07}, f32(3)),
		"quant raw":     sparseFrame(8, 2, sparseFlagQuant, quantHdr, u32(1, 2), []byte{0x0A}),
	}
	for name, data := range good {
		var s Sparse
		if err := s.DecodeBinaryInto(data); err != nil {
			t.Fatalf("well-formed %s frame rejected: %v", name, err)
		}
	}

	raw := good["raw"]
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
		"oversized nnz":               {sparseFrame(8, math.MaxUint32, 0, u32(1, 2), f64(3, 4)), true},
		"oversized nnz, ascending":    {sparseFrame(8, math.MaxUint32, asc|f32f, []byte{1, 0}, f32(3, 4)), true},
		"dense flag with nnz != dim":  {sparseFrame(8, 2, sparseFlagDense, f64(3, 4)), false},
		"dim overflows int32":         {sparseFrame(1<<31, 0, 0), false},
		"unknown flag bit":            {sparseFrame(8, 2, 1<<4, u32(1, 2), f64(3, 4)), false},
		"all flag bits":               {sparseFrame(8, 2, 0xFF, u32(1, 2), f64(3, 4)), false},
		"dense + ascending":           {sparseFrame(2, 2, sparseFlagDense|asc, f64(3, 4)), false},
		"quantized + f32":             {sparseFrame(8, 2, sparseFlagQuant|f32f, quantHdr, u32(1, 2), []byte{0x0A}), false},
		"ascending cut mid-run":       {sparseFrame(8, 2, asc|f32f, []byte{1}, f32(3, 4)), true},
		"ascending cut mid-varint":    {sparseFrame(8, 1, asc|f32f, []byte{0x80}, f32(3)), true},
		"ascending cut mid-value":     {sparseFrame(8, 2, asc|f32f, []byte{1, 0}, f32(3, 4)[:7]), true},
		"ascending trailing junk":     {sparseFrame(8, 2, asc|f32f, []byte{1, 0, 0}, f32(3, 4)), false},
		"varint of six bytes":         {sparseFrame(8, 1, asc|f32f, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, f32(3)), false},
		"gap past MaxInt32":           {sparseFrame(8, 1, asc|f32f, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x08}, f32(3)), false},
		"running index past MaxInt32": {sparseFrame(8, 2, asc|f32f, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x07, 0x00}, f32(3, 4)), false},
		"quantized level past count":  {sparseFrame(8, 2, sparseFlagQuant, quantHdr, u32(1, 2), []byte{0x0B}), false},
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
	// 1.64 MB, 4 B per parameter.
	const dim = 431080
	if got := (Identity{}).Encode(make([]float64, dim), 1).BinaryWireSize(); got != sparseBinaryHeader+4*dim {
		t.Errorf("dense identity frame at %d is %d B, want %d", dim, got, sparseBinaryHeader+4*dim)
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
