package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"adafl/internal/stats"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Size() != 24 || len(x.Data) != 24 {
		t.Fatalf("unexpected tensor: rank=%d size=%d", x.Rank(), x.Size())
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("unexpected dims: %v", x.Shape())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2, 0) did not panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceAndReshape(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.Dim(0) != 3 || y.Dim(1) != 2 || y.Data[2*2+1] != 6 {
		t.Fatalf("reshape view broken: shape %v, [2,1] = %v", y.Shape(), y.Data[2*2+1])
	}
	y.Data[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("reshape should share backing data")
	}
}

func TestZeroFillScaleAdd(t *testing.T) {
	x := FromSlice([]float32{6, 6, 6}, 3)
	y := FromSlice([]float32{1, 1, 1}, 3)
	x.AddInPlace(y)
	for _, v := range x.Data {
		if v != 7 {
			t.Fatalf("expected 7, got %v", v)
		}
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransposeBMatchesExplicit(t *testing.T) {
	r := stats.NewRNG(1)
	a := New(4, 5)
	a.RandNorm(r, 1)
	b := New(3, 5)
	b.RandNorm(r, 1)
	// explicit transpose
	bt := New(5, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			bt.Data[j*3+i] = b.Data[i*5+j]
		}
	}
	want := New(4, 3)
	MatMulInto(want, a, bt)
	got := New(4, 3)
	MatMulTransposeB(got, a, b)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransposeAMatchesExplicit(t *testing.T) {
	r := stats.NewRNG(2)
	a := New(6, 4) // (k×m)
	a.RandNorm(r, 1)
	b := New(6, 3) // (k×n)
	b.RandNorm(r, 1)
	at := New(4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			at.Data[j*6+i] = a.Data[i*4+j]
		}
	}
	want := New(4, 3)
	MatMulInto(want, at, b)
	got := New(4, 3)
	MatMulTransposeA(got, a, b)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float64{3, 4}
	if dot(a, a) != 25 {
		t.Fatal("dot failed")
	}
	if Norm2(a) != 5 {
		t.Fatal("Norm2 failed")
	}
}

func TestCosineSimilarityCases(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := CosineSimilarityAt(DeltaOf(a), nil, b); got != 0 {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := CosineSimilarityAt(DeltaOf(a), nil, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical cosine = %v, want 1", got)
	}
	neg := []float64{-2, 0}
	if got := CosineSimilarityAt(DeltaOf(a), nil, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("opposite cosine = %v, want -1", got)
	}
	if got := CosineSimilarityAt(DeltaOf(a), nil, []float64{0, 0}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestAxpyAddSub(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy result %v", y)
	}
	dst := make([]float64, 2)
	SubVec(dst, []float64{1, 2}, []float64{10, 20})
	if dst[0] != -9 || dst[1] != -18 {
		t.Fatalf("SubVec result %v", dst)
	}
}

// TestIsZero: agrees with Norm2(v) == 0 everywhere except where the squares
// underflow, which is the one case it is documented to answer differently.
func TestIsZero(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want bool
	}{
		{nil, true},
		{[]float64{0, math.Copysign(0, -1), 0}, true},
		{[]float64{0, 0, 1e-3}, false},
		{[]float64{math.NaN(), 0}, false},
		{[]float64{0, math.Inf(-1)}, false},
	} {
		if got := IsZero(c.v); got != c.want || got != (Norm2(c.v) == 0) {
			t.Errorf("IsZero(%v) = %v, want %v; Norm2 == 0 is %v", c.v, got, c.want, Norm2(c.v) == 0)
		}
	}
	tiny := []float64{1e-170, -5e-324}
	if IsZero(tiny) || Norm2(tiny) != 0 {
		t.Errorf("IsZero(%v) = %v with Norm2 %v: want not zero although the norm underflows to 0", tiny, IsZero(tiny), Norm2(tiny))
	}
}

func TestFlushSubnormal(t *testing.T) {
	const minNormal = 0x1p-1022
	for _, c := range []struct{ x, want float64 }{
		{1, 1}, {-3e-300, -3e-300}, {minNormal, minNormal}, {-minNormal, -minNormal},
		{minNormal / 2, 0}, {-5e-324, 0}, {0, 0}, {math.Inf(1), math.Inf(1)},
	} {
		if got := FlushSubnormal(c.x); got != c.want {
			t.Errorf("FlushSubnormal(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if !math.IsNaN(FlushSubnormal(math.NaN())) {
		t.Error("FlushSubnormal(NaN) is not NaN")
	}
	const minNormal32 = float32(0x1p-126)
	for _, c := range []struct{ x, want float32 }{
		{1, 1}, {-3e-30, -3e-30}, {minNormal32, minNormal32}, {-minNormal32, -minNormal32},
		{minNormal32 / 2, 0}, {-0x1p-149, 0}, {0, 0}, {float32(math.Inf(-1)), float32(math.Inf(-1))},
	} {
		if got := FlushSubnormal32(c.x); got != c.want {
			t.Errorf("FlushSubnormal32(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if nan := float32(math.NaN()); FlushSubnormal32(nan) == FlushSubnormal32(nan) {
		t.Error("FlushSubnormal32(NaN) is not NaN")
	}
}

func TestCosineSimilarityScaleInvariantProperty(t *testing.T) {
	f := func(seed uint64, scaleRaw uint16) bool {
		r := stats.NewRNG(seed)
		a := make([]float64, 16)
		b := make([]float64, 16)
		for i := range a {
			a[i] = r.Norm()
			b[i] = r.Norm()
		}
		scale := 0.01 + float64(scaleRaw%1000)
		scaled := CopyVec(a)
		ScaleVec(scaled, scale)
		return math.Abs(CosineSimilarityAt(DeltaOf(a), nil, b)-CosineSimilarityAt(DeltaOf(scaled), nil, b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransposeBAddAccumulates(t *testing.T) {
	r := stats.NewRNG(3)
	a := New(3, 4)
	a.RandNorm(r, 1)
	b := New(2, 4)
	b.RandNorm(r, 1)
	base := FromSlice([]float32{10, 10, 10, 10, 10, 10}, 3, 2)
	got := clone(base)
	MatMulTransposeBAdd(got, a, b)
	want := New(3, 2)
	MatMulTransposeB(want, a, b)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-(want.Data[i]+10))) > 1e-5 {
			t.Fatalf("accumulation mismatch at %d", i)
		}
	}
}

func TestShapeAccessor(t *testing.T) {
	x := New(2, 5)
	s := x.Shape()
	if len(s) != 2 || s[0] != 2 || s[1] != 5 {
		t.Fatalf("Shape() = %v", s)
	}
}

func TestMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"FromSlice", func() { FromSlice([]float32{1}, 2) }},
		{"Reshape", func() { New(4).Reshape(3) }},
		{"AddInPlace", func() { New(2).AddInPlace(New(3)) }},
		{"Axpy", func() { Axpy(1, []float64{1}, []float64{1, 2}) }},
		{"SubVec", func() { SubVec(make([]float64, 2), []float64{1}, []float64{1, 2}) }},
		{"MatMulInto", func() { MatMulInto(New(2, 2), New(2, 3), New(3, 3)) }},
		{"MatMulTransposeB", func() { MatMulTransposeB(New(2, 2), New(2, 3), New(2, 4)) }},
		{"MatMulTransposeBAdd", func() { MatMulTransposeBAdd(New(2, 2), New(2, 3), New(2, 4)) }},
		{"MatMulTransposeA", func() { MatMulTransposeA(New(2, 2), New(3, 2), New(4, 3)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatch did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestCosineSimilarityClampsRounding(t *testing.T) {
	// Nearly parallel vectors can produce |cos| slightly above 1 from
	// floating-point error; the result must be clamped.
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = 1e-7 * float64(i+1)
		b[i] = a[i]
	}
	if c := CosineSimilarityAt(DeltaOf(a), nil, b); c > 1 || c < -1 {
		t.Fatalf("cosine %v out of [-1,1]", c)
	}
}
