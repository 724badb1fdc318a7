package compress

import (
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

// supportVectors are the vectors a broadcast's ĝ can be: empty, sparse
// (one coordinate in seven, with −0, NaN payloads, ±Inf and subnormals at
// the support), dense, and dense but exactly float32.
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
	return map[string][]float64{"empty": make([]float64, dim), "sparse": sparse, "dense": dense, "f32": f32}
}

// TestSupportRoundTripBitExact: SetSupport keeps exactly the coordinates
// whose bits are not +0 unless the dense section is no larger, and
// ReadSupport, fed in pieces of 1, 7 and 4096 bytes, returns the vector as
// it was sent — pairs for a sparse section, one vector for a dense one —
// equal to the input bit for bit once scattered, having read every byte.
func TestSupportRoundTripBitExact(t *testing.T) {
	for name, v := range supportVectors() {
		var s Sparse
		if size := s.SetSupport(v, len(v)); size != s.BinaryWireSize() {
			t.Fatalf("%s: SetSupport says %d bytes, the section is %d", name, size, s.BinaryWireSize())
		}
		wantDense := name == "dense" || name == "f32"
		if got := len(s.Indices) == len(v); got != wantDense {
			t.Fatalf("%s: section carries %d of %d coordinates", name, len(s.Indices), len(v))
		}
		wire := s.AppendBinary(nil)
		for _, max := range []int{1, 7, 4096} {
			next, taken := pieces(wire, max)
			idx, vals, err := ReadSupport(next, int64(len(wire)), len(v), nil, nil)
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
// with its length, whose dim is not the vector's, or that is quantized or
// carries unknown flags, is an ErrMalformed error (or a truncation), never
// a panic, at every piece size.
func TestReadSupportRejectsHostileSections(t *testing.T) {
	const dim = 16
	head := func(d, nnz uint32, flags byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, d)
		return append(binary.LittleEndian.AppendUint32(b, nnz), flags)
	}
	raw := func(idx ...uint32) []byte {
		b := head(dim, uint32(len(idx)), sparseFlagF32)
		for _, i := range idx {
			b = binary.LittleEndian.AppendUint32(b, i)
		}
		return append(b, make([]byte, 4*len(idx))...)
	}
	varint := func(nnz uint32, run ...byte) []byte {
		b := append(head(dim, nnz, sparseFlagAscending|sparseFlagF32), run...)
		return append(b, make([]byte, 4*nnz)...)
	}
	cases := map[string][]byte{
		"unsorted":              raw(5, 3),
		"duplicate":             raw(3, 3),
		"out of range":          raw(2, dim),
		"negative":              raw(0xffffffff),
		"nnz over dim":          append(head(dim, dim+1, sparseFlagDense|sparseFlagF32), make([]byte, 4*(dim+1))...),
		"dense nnz short":       append(head(dim, dim-1, sparseFlagDense|sparseFlagF32), make([]byte, 4*(dim-1))...),
		"other dim":             head(dim+1, 0, 0),
		"quantized":             append(head(dim, 0, sparseFlagQuant), make([]byte, 12)...),
		"unknown flag":          head(dim, 0, 0x40),
		"dense and ascending":   head(dim, 0, sparseFlagDense|sparseFlagAscending),
		"raw length short":      raw(1, 2)[:9+4*2+4],
		"raw length long":       append(raw(1, 2), 0),
		"varint past dim":       varint(2, 3, 12),
		"varint run short":      varint(3, 0, 0),
		"varint run long":       varint(1, 0, 0),
		"varint of six bytes":   varint(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00),
		"varint cut at the end": varint(1, 0x81),
		"empty":                 nil,
	}
	for name, wire := range cases {
		for _, max := range []int{1, 3, 64} {
			next, _ := pieces(wire, max)
			_, _, err := ReadSupport(next, int64(len(wire)), dim, nil, nil)
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s (pieces of %d): err = %v, want ErrMalformed", name, max, err)
			}
		}
	}
}
