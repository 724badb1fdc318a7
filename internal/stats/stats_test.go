package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64UniformMoments(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sum2 += f * f
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.01 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12.0)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	n := 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestSkip: Skip(n) lands where n draws would, the stream's period is
// 2⁶⁴, and a cached spare is left alone.
func TestSkip(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 1000} {
		a, b := NewRNG(99), NewRNG(99)
		a.Skip(n)
		for range n {
			b.Uint64()
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("Skip(%d) is not %d draws", n, n)
		}
	}
	wrap := NewRNG(99)
	wrap.Skip(math.MaxUint64)
	wrap.Uint64()
	if wrap.Uint64() != NewRNG(99).Uint64() {
		t.Error("2⁶⁴ draws did not return to the start")
	}
	r, ref := NewRNG(5), NewRNG(5)
	r.Norm()
	r.Skip(3)
	ref.Norm()
	for range 3 {
		ref.Uint64()
	}
	if r.Norm() != ref.Norm() {
		t.Error("Skip dropped the cached spare")
	}
}

// TestNormRedrawsZero: splitmix64's finalizer maps 0 to 0, so seed
// −(k+1)·γ makes draw k exactly 0. A pair whose u would be 0 (log 0) is
// drawn again one draw later: the zero is skipped, and only it.
func TestNormRedrawsZero(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for _, k := range []uint64{0, 6, 1 << 20} {
		seed := -(k + 1) * gamma
		draws := NewRNG(seed)
		d := make([]uint64, k+4)
		for i := range d {
			d[i] = draws.Uint64()
		}
		if d[k] != 0 {
			t.Fatalf("draw %d of seed %#x is %#x, want 0", k, seed, d[k])
		}
		r := NewRNG(seed)
		r.Skip(k)
		u := float64(d[k+1]>>11) / (1 << 53)
		v := float64(d[k+2]>>11) / (1 << 53)
		mag := math.Sqrt(-2 * math.Log(u))
		if got, want := r.Norm(), mag*math.Cos(2*math.Pi*v); got != want {
			t.Errorf("k=%d: Norm = %v, want %v from draws k+1 and k+2", k, got, want)
		}
		if got, want := r.Norm(), mag*math.Sin(2*math.Pi*v); got != want {
			t.Errorf("k=%d: spare = %v, want %v", k, got, want)
		}
		if r.Uint64() != d[k+3] {
			t.Errorf("k=%d: the redraw consumed more than the zero", k)
		}
	}
}

// TestSincosMatchesSinCos: math.Sincos is bit-identical to math.Sin and
// math.Cos of the same argument over every v it is given here. The
// synthetic sets' digests were taken with per-pixel math.Sin and math.Cos;
// the owned Sincos repeats math.Sincos (TestOwnedTransformMatchesMath), so
// through this test it keeps those digests too.
func TestSincosMatchesSinCos(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	r := NewRNG(17)
	check := func(v float64) {
		x := 2 * math.Pi * v
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(2π·%v) = (%v, %v), Sin, Cos = (%v, %v)", v, s, c, math.Sin(x), math.Cos(x))
		}
	}
	check(0)
	for range n {
		check(r.Float64())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(31)
	child := r.Split()
	// The child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split stream mirrored parent %d times", same)
	}
}

// Property: permutations always contain every index exactly once.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		p := NewRNG(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormScaled(t *testing.T) {
	r := NewRNG(51)
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.NormScaled(5, 2)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("scaled mean %v, want ~5", mean)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(53)
	v := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	seen := make([]bool, 8)
	for _, x := range v {
		if seen[x] {
			t.Fatal("shuffle duplicated an element")
		}
		seen[x] = true
	}
}
