package stats

import (
	"math"
	"runtime"
	"testing"
)

// TestOwnedTransformMatchesMath: on amd64, where math.Log is archLog and
// the compiler fuses nothing, ln is math.Log and Sincos is math.Sincos
// bit for bit, over 10⁷ pairs of draws and at the edges: the smallest and
// largest u, u = √2/2 (where archLog's ≤ and log.go's < part), v = 0 and
// v on and beside every octant boundary k/8; and each drawn pair is what
// math gave Norm. Elsewhere math is not the reference: there the owned
// transform is the definition.
func TestOwnedTransformMatchesMath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math on %s may fuse multiply-adds; amd64's bits are the reference", runtime.GOARCH)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checkU := func(u float64) {
		if got, want := ln(u), math.Log(u); !same(got, want) {
			t.Fatalf("ln(%v) = %v, math.Log %v", u, got, want)
		}
	}
	checkV := func(v float64) {
		x := 2 * math.Pi * v
		s, c := Sincos(x)
		ws, wc := math.Sincos(x)
		if !same(s, ws) || !same(c, wc) {
			t.Fatalf("Sincos(2π·%v) = (%v, %v), math.Sincos (%v, %v)", v, s, c, ws, wc)
		}
	}
	checkU(0x1p-53)
	checkU(1 - 0x1p-53)
	checkU(math.Sqrt2 / 2)
	checkU(math.Nextafter(math.Sqrt2/2, 0))
	checkU(math.Nextafter(math.Sqrt2/2, 1))
	for k := range 8 {
		v := float64(k) / 8
		checkV(v)
		checkV(math.Nextafter(v, 0))
		checkV(math.Nextafter(v, 1))
	}
	checkV(1 - 0x1p-53)
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	r := NewRNG(23)
	for range n {
		wu, wv := r.Uint64(), r.Uint64()
		u := float64(wu>>11) / (1 << 53)
		v := float64(wv>>11) / (1 << 53)
		checkV(v)
		if u == 0 {
			continue
		}
		checkU(u)
		// The pair is what Norm computed with math before it owned the
		// transform.
		mag := math.Sqrt(-2 * math.Log(u))
		if c, s := normPair(wu, wv); !same(c, mag*math.Cos(2*math.Pi*v)) || !same(s, mag*math.Sin(2*math.Pi*v)) {
			t.Fatalf("normPair(%#x, %#x) = (%v, %v), want (%v, %v)", wu, wv, c, s, mag*math.Cos(2*math.Pi*v), mag*math.Sin(2*math.Pi*v))
		}
	}
}

// TestSpareAndPeek: HasSpare reports the cached half of a pair, and Peek
// writes the next draws without moving the generator.
func TestSpareAndPeek(t *testing.T) {
	r := NewRNG(31)
	if r.HasSpare() {
		t.Fatal("a new generator holds a spare")
	}
	r.Norm()
	if !r.HasSpare() {
		t.Fatal("no spare after one Norm")
	}
	r.Norm()
	if r.HasSpare() {
		t.Fatal("a spare after two Norms")
	}
	w := make([]uint64, 9)
	r.Peek(w)
	for i, x := range w {
		if d := r.Uint64(); d != x {
			t.Fatalf("Peek[%d] = %#x, draw %#x", i, x, d)
		}
	}
}
