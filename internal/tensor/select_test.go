package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
)

// magKey is the key GatherKeys gathers: bits &^ sign, 0 for NaN and ±Inf.
func magKey(x float64) uint64 {
	k := math.Float64bits(x) &^ keySign
	if k >= keyExp {
		return 0
	}
	return k
}

// selectInput draws n coordinates mixing Gaussians, repeats of a few
// magnitudes (mass ties), zeros of both signs, subnormals and NaN/±Inf.
func selectInput(r *stats.RNG, n int) []float64 {
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, 0.25, -0.25}
	v := make([]float64, n)
	for i := range v {
		switch r.Intn(4) {
		case 0:
			v[i] = specials[r.Intn(len(specials))]
		default:
			v[i] = r.Norm()
		}
	}
	return v
}

// TestSelectKernelsMatchScalarLoops runs GatherKeys and CompressAbove at
// every dispatch level against the scalar loops they stand for, over
// lengths around every vector width, brackets and thresholds drawn from
// the input's own keys (ties included), and room from tight to slack.
func TestSelectKernelsMatchScalarLoops(t *testing.T) {
	r := stats.NewRNG(40)
	forEachLevel(t, func(level string) {
		t.Logf("dispatch level %s", level)
		for n := 0; n <= 70; n++ {
			for trial := 0; trial < 12; trial++ {
				checkSelectKernels(t, level, r, selectInput(r, n))
			}
		}
		for trial := 0; trial < 20; trial++ {
			checkSelectKernels(t, level, r, selectInput(r, 1000+r.Intn(64)))
		}
	})
}

func checkSelectKernels(t *testing.T, level string, r *stats.RNG, v []float64) {
	t.Helper()
	pick := func() uint64 { // a key of v, a neighbour of one, or an extreme
		switch {
		case len(v) == 0 || r.Intn(8) == 0:
			return []uint64{0, 1, keyExp, math.MaxInt64, math.MaxUint64}[r.Intn(5)]
		case r.Intn(4) == 0:
			return magKey(v[r.Intn(len(v))]) + 1
		}
		return magKey(v[r.Intn(len(v))])
	}

	lo, hi := pick(), pick()
	if lo > hi && r.Intn(4) != 0 {
		lo, hi = hi, lo
	}
	var wantAbove int
	var want []float64
	for _, x := range v {
		switch k := magKey(x); {
		case k > hi:
			wantAbove++
		case k >= lo:
			want = append(want, math.Float64frombits(k))
		}
	}
	dst := make([]float64, len(v))
	above, n, ok := GatherKeys(dst, v, lo, hi)
	if !ok || above != wantAbove || n != len(want) {
		t.Fatalf("%s: GatherKeys n=%d [%#x, %#x]: above %d inside %d ok %v, want %d %d", level, len(v), lo, hi, above, n, ok, wantAbove, len(want))
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: GatherKeys n=%d: key %d is %#x, want %#x", level, len(v), i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
		}
	}
	// A dst shorter than v: the pass runs in blocks no longer than the
	// room left, and stops at the first key in the bracket that finds dst
	// full, having written the keys before it.
	room := r.Intn(len(want) + 80)
	short := make([]float64, room+1)
	_, n, ok = GatherKeys(short[:room], v, lo, hi)
	if ok != (room >= len(want)) || ok && n != len(want) || !ok && n != room {
		t.Fatalf("%s: GatherKeys n=%d into %d slots: inside %d ok %v, want %d inside", level, len(v), room, n, ok, len(want))
	}
	for i := range n {
		if math.Float64bits(short[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: GatherKeys n=%d into %d slots: key %d is %#x, want %#x", level, len(v), room, i, math.Float64bits(short[i]), math.Float64bits(want[i]))
		}
	}
	if short[room] != 0 {
		t.Fatalf("%s: GatherKeys n=%d wrote past its %d slots", level, len(v), room)
	}

	thr, ties := pick(), r.Intn(len(v)+2)
	var wantIdx []int32
	var wantVals []float64
	left := ties
	for i, x := range v {
		k := math.Float64bits(x) &^ keySign
		if k < thr || k == thr && left == 0 || k != thr && k >= keyExp {
			continue
		}
		if k == thr {
			left--
		}
		wantIdx, wantVals = append(wantIdx, int32(i)), append(wantVals, x)
	}
	for _, room := range []int{len(wantIdx), len(wantIdx) + CompressSlack, len(v) + CompressSlack} {
		idx, vals := make([]int32, room), make([]float64, room)
		got := CompressAbove(idx, vals, v, thr, ties)
		if got != len(wantIdx) {
			t.Fatalf("%s: CompressAbove n=%d thr=%#x ties=%d room=%d: took %d, want %d", level, len(v), thr, ties, room, got, len(wantIdx))
		}
		for i := range wantIdx {
			if idx[i] != wantIdx[i] || math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("%s: CompressAbove n=%d thr=%#x ties=%d room=%d: entry %d is (%d, %#x), want (%d, %#x)", level, len(v), thr, ties, room,
					i, idx[i], math.Float64bits(vals[i]), wantIdx[i], math.Float64bits(wantVals[i]))
			}
		}
	}
}

// TestF64LEMatchesByteOrderLoops pins PutF64LE and ReadF64LE, and the
// byte-order loops a big-endian host runs instead of their copy, against
// encoding/binary over every length around a vector width, NaN payloads
// included, from an unaligned source.
func TestF64LEMatchesByteOrderLoops(t *testing.T) {
	r := stats.NewRNG(41)
	for n := 0; n <= 40; n++ {
		v := selectInput(r, n)
		want := make([]byte, 8*n)
		for i, x := range v {
			binary.LittleEndian.PutUint64(want[8*i:], math.Float64bits(x))
		}
		for _, put := range []struct {
			name string
			f    func([]byte, []float64)
		}{{"PutF64LE", PutF64LE}, {"putF64LE", putF64LE}} {
			got := make([]byte, 8*n+3)
			put.f(got, v)
			if string(got[:8*n]) != string(want) || string(got[8*n:]) != "\x00\x00\x00" {
				t.Fatalf("%s n=%d differs from PutUint64", put.name, n)
			}
		}
		for _, read := range []struct {
			name string
			f    func([]float64, []byte)
		}{{"ReadF64LE", ReadF64LE}, {"readF64LE", readF64LE}} {
			back := make([]float64, n)
			read.f(back, append([]byte{1}, want...)[1:]) // unaligned source
			for i := range v {
				if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
					t.Fatalf("%s n=%d: element %d is %#x, want %#x", read.name, n, i, math.Float64bits(back[i]), math.Float64bits(v[i]))
				}
			}
		}
	}
}

// TestReadF32LEMatchesByteOrderLoop is TestF64LEMatchesByteOrderLoops for
// ReadF32LE and its loop, over the float32 specials and arbitrary bits.
func TestReadF32LEMatchesByteOrderLoop(t *testing.T) {
	r := stats.NewRNG(42)
	for n := 0; n <= 40; n++ {
		v := elemInputs32(r, n)
		src := make([]byte, 1+4*n)
		for i, x := range v {
			binary.LittleEndian.PutUint32(src[1+4*i:], math.Float32bits(x))
		}
		for _, read := range []struct {
			name string
			f    func([]float32, []byte)
		}{{"ReadF32LE", ReadF32LE}, {"readF32LE", readF32LE}} {
			back := make([]float32, n)
			read.f(back, src[1:]) // unaligned source
			assertBits32(t, back, v, fmt.Sprintf("%s n=%d", read.name, n))
		}
	}
}

// TestMaxKernelsMatchScalarLoops pins MaxIndex and MaxKey against the
// scalar loops they stand for, at every level and every length around the
// vector widths. The largest element is planted at every position of a
// vector step in turn, so a lane the fold at the end drops shows; the
// indices include negatives (which read as 2³¹ or more) and the values
// NaN payloads and ±Inf.
func TestMaxKernelsMatchScalarLoops(t *testing.T) {
	r := stats.NewRNG(43)
	forEachLevel(t, func(level string) {
		for _, n := range []int{0, 1, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 40, 1000, 20000} {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(r.Intn(1 << 20))
			}
			v := selectInput(r, n)
			for i := range v {
				if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
					v[i] = r.Norm()
				}
			}
			check := func(what string) {
				t.Helper()
				var wantI uint32
				for _, x := range idx {
					wantI = max(wantI, uint32(x))
				}
				if got := MaxIndex(idx); got != wantI {
					t.Fatalf("%s: MaxIndex n=%d (%s) = %#x, want %#x", level, n, what, got, wantI)
				}
				var wantK uint64
				for _, x := range v {
					wantK = max(wantK, math.Float64bits(x)&^keySign)
				}
				if got := MaxKey(v); got != wantK {
					t.Fatalf("%s: MaxKey n=%d (%s) = %#x, want %#x", level, n, what, got, wantK)
				}
			}
			check("finite")
			for p := 0; p < min(n, 16); p++ {
				j := n - 1 - p
				if p%2 == 0 {
					j = p
				}
				oldI, oldV := idx[j], v[j]
				for _, big := range []int32{1 << 30, math.MaxInt32, -1, math.MinInt32} {
					idx[j] = big
					check("planted index")
				}
				for _, big := range []float64{1e300, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
					math.Float64frombits(0xfff0_0000_0000_0001), -math.Float64frombits(0x7fff_ffff_ffff_ffff)} {
					v[j] = big
					check("planted value")
				}
				idx[j], v[j] = oldI, oldV
			}
		}
	})
}
