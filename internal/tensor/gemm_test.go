package tensor

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
)

// relClose reports whether x and y agree within tol relative tolerance.
func relClose(x, y, tol float64) bool {
	d := math.Abs(x - y)
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return d <= tol*scale
}

func assertTensorsClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: size %d vs %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if !relClose(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: element %d: got %v want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// equivalenceShapes deliberately includes shapes that are not multiples of
// the 4×8 register tile, plus degenerate 1-sized dimensions and the
// paper-CNN GEMM shapes.
var equivalenceShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{3, 5, 2},
	{4, 4, 4},
	{5, 9, 6},
	{7, 13, 11},
	{8, 300, 5},
	{16, 16, 16},
	{23, 31, 17},
	{20, 25, 576},  // conv1
	{50, 500, 64},  // conv2: two edge rows
	{33, 257, 65},  // every dimension one past a tile multiple
	{16, 500, 800}, // dense input gradient: the NT variant packs a, not b
}

// forEachSIMDMode runs fn with the portable kernel and, where the CPU has
// it, the assembly kernel, restoring the kernel choice and the worker budget
// afterwards.
func forEachSIMDMode(t *testing.T, fn func(simd bool)) {
	t.Helper()
	oldSIMD, oldWorkers := simdEnabled, MatMulWorkers()
	defer func() {
		simdEnabled = oldSIMD
		SetMatMulWorkers(oldWorkers)
	}()
	for _, simd := range []bool{false, true} {
		if simd && !detectSIMD() {
			continue
		}
		simdEnabled = simd
		fn(simd)
	}
}

// forEachKernelMode runs fn under both kernels, each serially and with a
// forced worker budget.
func forEachKernelMode(t *testing.T, fn func(label string)) {
	t.Helper()
	forEachSIMDMode(t, func(simd bool) {
		for _, workers := range []int{1, 4} {
			SetMatMulWorkers(workers)
			fn(fmt.Sprintf("simd%v-w%d", simd, workers))
		}
	})
}

// matrix wraps data as an r×c tensor; unlike New it accepts an empty one.
func matrix(r *stats.RNG, rows, cols int) *Tensor {
	t := FromSlice(make([]float64, rows*cols), rows, cols)
	t.RandNorm(r, 1)
	return t
}

// TestMatMulMatchesNaive checks all four variants against the retained seed
// kernels within 1e-12 relative tolerance.
func TestMatMulMatchesNaive(t *testing.T) {
	forEachKernelMode(t, func(mode string) {
		for _, s := range equivalenceShapes {
			label := fmt.Sprintf("%s-%dx%dx%d", mode, s.m, s.k, s.n)
			r := stats.NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
			a, b := matrix(r, s.m, s.k), matrix(r, s.k, s.n)
			bt, at := matrix(r, s.n, s.k), matrix(r, s.k, s.m)
			base := matrix(r, s.m, s.n)

			got, want := New(s.m, s.n), New(s.m, s.n)
			MatMulInto(got, a, b)
			naiveMatMulInto(want, a, b)
			assertTensorsClose(t, got, want, 1e-12, label+"-MatMulInto")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeB(got, a, bt)
			naiveMatMulTransposeB(want, a, bt)
			assertTensorsClose(t, got, want, 1e-12, label+"-MatMulTransposeB")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeBAdd(got, a, bt)
			naiveMatMulTransposeBAdd(want, a, bt)
			assertTensorsClose(t, got, want, 1e-12, label+"-MatMulTransposeBAdd")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeA(got, at, b)
			naiveMatMulTransposeA(want, at, b)
			assertTensorsClose(t, got, want, 1e-12, label+"-MatMulTransposeA")
		}
	})
}

// fmaChain is the bit contract of every variant, written out: each element
// of c is one fused multiply-add chain over ascending p that starts from
// the element's own value. a′(i,p) is a[i*ars+p*aps], b′(p,j) is
// b[p*brs+j*bcs].
func fmaChain(c []float64, m, k, n int, a []float64, ars, aps int, b []float64, brs, bcs int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc = math.FMA(a[i*ars+p*aps], b[p*brs+j*bcs], acc)
			}
			c[i*n+j] = acc
		}
	}
}

func assertTensorsBitEqual(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d (row %d, col %d): got %v want %v",
				label, i, i/want.Dim(1), i%want.Dim(1), got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulIsAscendingFMAChain pins the bit contract on every row and
// column — interior tiles, edge tiles, packed panels and the transposed
// stack tile alike: the shapes of TestMatMulMatchesNaive, everything below
// one register tile, k of 0 and 1, and 200 random shapes up to 40.
func TestMatMulIsAscendingFMAChain(t *testing.T) {
	shapes := append([]struct{ m, k, n int }(nil), equivalenceShapes...)
	for m := 1; m <= gemmMR; m++ {
		for n := 1; n <= gemmNR; n++ {
			for _, k := range []int{0, 1, 3} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	pick := stats.NewRNG(2024)
	for i := 0; i < 200; i++ {
		shapes = append(shapes, struct{ m, k, n int }{1 + pick.Intn(40), 1 + pick.Intn(40), 1 + pick.Intn(40)})
	}
	forEachKernelMode(t, func(mode string) {
		for _, s := range shapes {
			label := fmt.Sprintf("%s-%dx%dx%d", mode, s.m, s.k, s.n)
			r := stats.NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
			a, b := matrix(r, s.m, s.k), matrix(r, s.k, s.n)
			bt, at := matrix(r, s.n, s.k), matrix(r, s.k, s.m)
			base := matrix(r, s.m, s.n)

			got, want := base.Clone(), New(s.m, s.n)
			MatMulInto(got, a, b)
			fmaChain(want.Data, s.m, s.k, s.n, a.Data, s.k, 1, b.Data, s.n, 1)
			assertTensorsBitEqual(t, got, want, label+"-MatMulInto")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeA(got, at, b)
			fmaChain(want.Data, s.m, s.k, s.n, at.Data, 1, s.m, b.Data, s.n, 1)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeA")

			got, want = base.Clone(), base.Clone()
			MatMulTransposeBAdd(got, a, bt)
			fmaChain(want.Data, s.m, s.k, s.n, a.Data, s.k, 1, bt.Data, 1, s.k)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeBAdd")

			got, want = base.Clone(), New(s.m, s.n)
			MatMulTransposeB(got, a, bt)
			fmaChain(want.Data, s.m, s.k, s.n, a.Data, s.k, 1, bt.Data, 1, s.k)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeB")
		}
	})
}

// fanOutShape is a product just over minParallelWork with edge rows and
// edge columns, so a worker budget above 1 really splits it.
func fanOutShape() (m, k, n int) {
	m, n = 66, 100
	return m, minParallelWork/(m*n) + 1, n
}

// TestParallelMatMulBitIdentical verifies the row-parallel path produces
// bit-identical output to the serial path for every variant: each element
// is one chain whatever the partition, so determinism must be exact.
func TestParallelMatMulBitIdentical(t *testing.T) {
	m, k, n := fanOutShape()
	r := stats.NewRNG(42)
	a, b := matrix(r, m, k), matrix(r, k, n)
	bt, at := matrix(r, n, k), matrix(r, k, m)
	base := matrix(r, m, n)
	run := func() [3]*Tensor {
		out := [3]*Tensor{New(m, n), base.Clone(), base.Clone()}
		MatMulInto(out[0], a, b)
		MatMulTransposeA(out[1], at, b)
		MatMulTransposeBAdd(out[2], a, bt)
		return out
	}

	forEachSIMDMode(t, func(simd bool) {
		SetMatMulWorkers(1)
		serial := run()
		for _, w := range []int{2, 3, 8} {
			SetMatMulWorkers(w)
			for v, par := range run() {
				assertTensorsBitEqual(t, par, serial[v], fmt.Sprintf("simd%v workers=%d variant %d", simd, w, v))
			}
		}
	})
}

// TestWorkerBudgetRestored checks tokens drain back after parallel calls.
func TestWorkerBudgetRestored(t *testing.T) {
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)
	SetMatMulWorkers(4)
	m, k, n := fanOutShape()
	if planned := planHelpers(m, m*k*n); planned != 3 {
		t.Fatalf("fan-out shape %dx%dx%d planned %d helpers, want 3", m, k, n, planned)
	}
	releaseHelpers(3)
	r := stats.NewRNG(7)
	a, b, c := matrix(r, m, k), matrix(r, k, n), New(m, n)
	for i := 0; i < 10; i++ {
		MatMulInto(c, a, b)
	}
	if free := helperTokens.Load(); free != 3 {
		t.Fatalf("helper tokens leaked: have %d free of 3", free)
	}
}

// TestMatMulSteadyStateZeroAllocs pins the allocation-free hot path: the
// packed panels come from a reused workspace, not from a fresh buffer per
// call, for every variant at the conv2 and dense shapes of the paper CNN.
func TestMatMulSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	old := MatMulWorkers()
	defer SetMatMulWorkers(old)
	SetMatMulWorkers(1)
	r := stats.NewRNG(9)
	for _, s := range []struct{ m, k, n int }{{50, 500, 64}, {16, 800, 500}} {
		a, b := matrix(r, s.m, s.k), matrix(r, s.k, s.n)
		bt, at := matrix(r, s.n, s.k), matrix(r, s.k, s.m)
		c := New(s.m, s.n)
		for name, fn := range map[string]func(){
			"MatMulInto":          func() { MatMulInto(c, a, b) },
			"MatMulTransposeA":    func() { MatMulTransposeA(c, at, b) },
			"MatMulTransposeB":    func() { MatMulTransposeB(c, a, bt) },
			"MatMulTransposeBAdd": func() { MatMulTransposeBAdd(c, a, bt) },
		} {
			if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
				t.Errorf("%s %dx%dx%d: %v allocs/op, want 0", name, s.m, s.k, s.n, allocs)
			}
		}
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}

// TestMatMulShapePanics covers the shape guards of all matmul variants:
// mismatched inner dimensions, wrong output shapes and non-2D operands.
func TestMatMulShapePanics(t *testing.T) {
	a := New(3, 4)  // m×k
	b := New(4, 5)  // k×n
	bt := New(5, 4) // n×k
	at := New(4, 3) // k×m
	c := New(3, 5)  // m×n
	bad := New(2, 2)
	vec := New(4)

	mustPanic(t, "MatMulInto inner", func() { MatMulInto(c, a, bad) })
	mustPanic(t, "MatMulInto out", func() { MatMulInto(bad, a, b) })
	mustPanic(t, "MatMulInto rank", func() { MatMulInto(c, vec, b) })

	mustPanic(t, "MatMulTransposeB inner", func() { MatMulTransposeB(c, a, New(5, 3)) })
	mustPanic(t, "MatMulTransposeB out", func() { MatMulTransposeB(bad, a, bt) })
	mustPanic(t, "MatMulTransposeB rank", func() { MatMulTransposeB(c, a, vec) })

	mustPanic(t, "MatMulTransposeBAdd inner", func() { MatMulTransposeBAdd(c, a, New(5, 3)) })
	mustPanic(t, "MatMulTransposeBAdd out", func() { MatMulTransposeBAdd(bad, a, bt) })

	mustPanic(t, "MatMulTransposeA inner", func() { MatMulTransposeA(c, at, New(3, 5)) })
	mustPanic(t, "MatMulTransposeA out", func() { MatMulTransposeA(bad, at, b) })
	mustPanic(t, "MatMulTransposeA rank", func() { MatMulTransposeA(c, vec, b) })

	// Valid calls must not panic after all that.
	MatMulInto(c, a, b)
	MatMulTransposeB(c, a, bt)
	MatMulTransposeBAdd(c, a, bt)
	MatMulTransposeA(c, at, b)
}

// TestScratchPoolRoundTrip checks GetScratch length semantics and reuse.
func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch(100)
	if len(s) != 100 {
		t.Fatalf("GetScratch(100) returned len %d", len(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	PutScratch(s)
	s2 := GetScratch(50)
	if len(s2) != 50 {
		t.Fatalf("GetScratch(50) returned len %d", len(s2))
	}
	PutScratch(s2)
}
