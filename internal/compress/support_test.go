package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"adafl/internal/stats"
)

// pieces returns a ReadSupport source over b handing out at most max
// bytes per call, so values and varints straddle piece boundaries the way
// a socket's pieces split them, and reporting how many bytes were taken.
func pieces(b []byte, max int) (func(width, limit int) ([]byte, error), *int) {
	off := 0
	return func(width, limit int) ([]byte, error) {
		if len(b)-off < width {
			return nil, ErrBinaryTruncated
		}
		n := min(limit, max/width, (len(b)-off)/width)
		if n < 1 {
			n = 1
		}
		out := b[off : off+n*width]
		off += n * width
		return out, nil
	}, &off
}

// funcPieces is a PieceSource of a function.
type funcPieces func(width, limit int) ([]byte, error)

func (f funcPieces) Next(width, limit int) ([]byte, error) { return f(width, limit) }

// supportVectors are the vectors a broadcast's ĝ can be: empty, sparse
// (one coordinate in seven, with −0, NaN payloads, ±Inf and subnormals at
// the support), dense, dense but exactly float32, and one coordinate far
// into the paper CNN's 431 080, float32 or not, whose index travels as a
// raw u32 because its Rice run and parameter byte are no shorter.
func supportVectors() map[string][]float64 {
	r := stats.NewRNG(5)
	const dim = 5003
	odd := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff4000012345678),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 0x1p-149, -1e-310}
	sparse, dense, f32 := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for i := range dense {
		dense[i] = r.Norm()
		f32[i] = float64(float32(dense[i]))
		if i%7 == 2 {
			sparse[i] = dense[i]
		}
	}
	for k, v := range odd {
		sparse[k*7+2], dense[k] = v, v
	}
	high, highF32 := make([]float64, 431080), make([]float64, 431080)
	high[400000], highF32[400000] = 0.1, 0.25
	return map[string][]float64{"empty": make([]float64, dim), "sparse": sparse, "dense": dense, "f32": f32,
		"high": high, "high-f32": highF32}
}

// TestSupportRoundTripBitExact: a Support's section is the one
// AppendBinary writes for the vector's coordinates whose bits are not +0,
// or for the dense message when that is no larger, planned at the size
// it has, and streamed or appended alike; ReadSupport, fed in pieces of
// 1, 7 and 4096 bytes, returns the vector as it was sent — pairs for a
// sparse section, one vector for a dense one — equal to the input bit for
// bit once scattered, having read every byte.
func TestSupportRoundTripBitExact(t *testing.T) {
	for name, v := range supportVectors() {
		var g Support
		size := g.Plan(v, len(v))
		wire := g.AppendBinary(nil)
		var streamed bytes.Buffer
		g.Plan(v, len(v))
		if err := g.EncodeBinaryTo(&streamed, make([]byte, 37)); err != nil {
			t.Fatal(err)
		}
		sp := &Sparse{Dim: len(v), Indices: []int32{}, Values: []float64{}}
		for i, x := range v {
			if math.Float64bits(x) != 0 {
				sp.Indices, sp.Values = append(sp.Indices, int32(i)), append(sp.Values, x)
			}
		}
		want := sp.AppendBinary(nil)
		if d := NewSparseDense(v).AppendBinary(nil); len(d) <= len(want) {
			want = d
		}
		if size != len(wire) || !bytes.Equal(wire, want) || !bytes.Equal(streamed.Bytes(), want) {
			t.Fatalf("%s: planned %d bytes, appended %d, streamed %d; the message's section is %d bytes and differs",
				name, size, len(wire), streamed.Len(), len(want))
		}
		wantDense := name == "dense" || name == "f32"
		wantRaw := name == "high" || name == "high-f32" // the u32 index layout
		if wire[8]&sparseFlagDense != 0 != wantDense || wantRaw && wire[8]&sparseFlagAscending != 0 {
			t.Fatalf("%s: section flags %#x", name, wire[8])
		}
		for _, max := range []int{1, 7, 4096} {
			next, taken := pieces(wire, max)
			idx, vals, err := ReadSupport(funcPieces(next), int64(len(wire)), len(v), nil, nil)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, max, err)
			}
			if *taken != len(wire) || (idx == nil) != wantDense {
				t.Fatalf("%s/%d: read %d of %d bytes, dense %v", name, max, *taken, len(wire), idx == nil)
			}
			got := vals
			if idx != nil {
				got = make([]float64, len(v))
				for j, i := range idx {
					got[i] = vals[j]
				}
			}
			for i := range v {
				if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
					t.Fatalf("%s/%d: coordinate %d: %x, want %x", name, max, i, math.Float64bits(got[i]), math.Float64bits(v[i]))
				}
			}
		}
	}
}

// TestReadSupportRejectsHostileSections: a section whose indices are out
// of order, repeated or out of range, whose nnz exceeds dim or disagrees
// with its length, whose Rice run is short, long, or runs past dim, whose
// dim is not the vector's, or that is quantized or carries unknown flags,
// is an ErrMalformed error (or a truncation), never a panic, at every
// piece size; the well-formed sections they are built like read back.
func TestReadSupportRejectsHostileSections(t *testing.T) {
	const dim = 16
	head := func(d, nnz uint32, flags byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, d)
		return append(binary.LittleEndian.AppendUint32(b, nnz), flags)
	}
	// raw is a raw-index f32 section, its four planes raw and zero.
	raw := func(idx ...uint32) []byte {
		b := append(head(dim, uint32(len(idx)), sparseFlagF32), 0)
		for _, i := range idx {
			b = binary.LittleEndian.AppendUint32(b, i)
		}
		return append(b, make([]byte, 4*len(idx))...)
	}
	// rice is an ascending f32 section of nnz coordinates: Rice parameter
	// k, the run, four raw zero planes.
	rice := func(nnz uint32, k byte, run ...byte) []byte {
		b := append(append(head(dim, nnz, sparseFlagAscending|sparseFlagF32), k, 0), run...)
		return append(b, make([]byte, 4*nnz)...)
	}
	for name, wire := range map[string][]byte{
		"raw":   raw(1, 2, 15),
		"rice":  rice(3, 1, riceRun(1, 1, 2, 15)...),
		"dense": append(head(dim, dim, sparseFlagDense|sparseFlagF32), append([]byte{0}, make([]byte, 4*dim)...)...),
	} {
		next, _ := pieces(wire, 3)
		if _, _, err := ReadSupport(funcPieces(next), int64(len(wire)), dim, nil, nil); err != nil {
			t.Fatalf("well-formed %s section rejected: %v", name, err)
		}
	}
	cases := map[string][]byte{
		"unsorted":                raw(5, 3),
		"duplicate":               raw(3, 3),
		"out of range":            raw(2, dim),
		"negative":                raw(0xffffffff),
		"nnz over dim":            append(head(dim, dim+1, sparseFlagDense|sparseFlagF32), append([]byte{0}, make([]byte, 4*(dim+1))...)...),
		"dense nnz short":         append(head(dim, dim-1, sparseFlagDense|sparseFlagF32), append([]byte{0}, make([]byte, 4*(dim-1))...)...),
		"other dim":               head(dim+1, 0, 0),
		"quantized":               append(head(dim, 0, sparseFlagQuant), make([]byte, 12)...),
		"unknown flag":            head(dim, 0, 0x40),
		"dense and ascending":     head(dim, 0, sparseFlagDense|sparseFlagAscending),
		"raw length short":        raw(1, 2)[:10+4*2+4],
		"raw length long":         append(raw(1, 2), 0),
		"Rice index past dim":     rice(1, 3, riceRun(3, dim)...),
		"Rice run short":          rice(3, 0, riceRun(0, 0, 1)...),
		"Rice run long":           rice(1, 0, append(riceRun(0, 0), 0)...),
		"unary run past dim":      rice(1, 0, 0, 0),
		"Rice parameter past 31":  rice(1, 32, riceRun(0, 1)...),
		"Rice run cut at the end": rice(2, 0, riceRun(0, 1, 9)[:1]...),
		"empty":                   nil,
	}
	for name, wire := range cases {
		for _, max := range []int{1, 3, 64} {
			next, _ := pieces(wire, max)
			_, _, err := ReadSupport(funcPieces(next), int64(len(wire)), dim, nil, nil)
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s (pieces of %d): err = %v, want ErrMalformed", name, max, err)
			}
		}
	}
}

// FuzzReadSupport: arbitrary bytes fed to ReadSupport in pieces of 7 never
// panic it and never make it allocate past what their length justifies,
// and a section it accepts is the one DecodeBinaryInto reads from the same
// bytes — as pairs, or dense when it has no idx.
func FuzzReadSupport(f *testing.F) {
	for _, v := range supportVectors() {
		var g Support
		g.Plan(v, len(v))
		raw := g.AppendBinary(nil)
		f.Add(raw)
		f.Add(raw[:len(raw)/3])
	}
	for _, msg := range codedFrames() {
		if !msg.quantized() {
			raw := msg.AppendBinary(nil)
			f.Add(raw)
			f.Add(raw[:len(raw)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dim := 0
		if len(data) >= 4 {
			dim = int(binary.LittleEndian.Uint32(data) & (1<<24 - 1))
		}
		next, _ := pieces(data, 7)
		idx, vals, err := ReadSupport(funcPieces(next), int64(len(data)), dim, nil, nil)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if len(vals) > 2*len(data) {
			t.Fatalf("%d-byte section read as %d values", len(data), len(vals))
		}
		var s Sparse
		if err := s.DecodeBinaryInto(data); err != nil {
			t.Fatalf("ReadSupport accepts a section DecodeBinaryInto rejects: %v", err)
		}
		got := &Sparse{Dim: dim, Indices: idx, Values: vals}
		if idx == nil {
			got = NewSparseDense(vals)
		}
		if !sameSparse(got, &s) {
			t.Fatalf("ReadSupport and DecodeBinaryInto read the section differently")
		}
	})
}
