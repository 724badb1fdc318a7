package tensor

import (
	"fmt"
	"math"
	"math/big"
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
		if !relClose(float64(got.Data[i]), float64(want.Data[i]), tol) {
			t.Fatalf("%s: element %d: got %v want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// equivalenceShapes deliberately includes shapes that are not multiples of
// the 4×32 register tile, plus degenerate 1-sized dimensions and the
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
	{9, 40, 33},    // one full column tile and one lane of the next
	{16, 500, 800}, // dense input gradient: the NT variant packs b, eight by eight
	{8, 500, 800},  // the same at batch 8
	{50, 64, 500},  // conv2 weight gradient: a 20-wide edge panel
	{20, 576, 25},  // conv1 weight gradient: one 25-wide panel, a vector past the blocks
	{61, 19, 7},    // NT runs transposed: two tiles against sixteen
}

// forEachLevel runs fn at every dispatch level this CPU can run, from the
// portable kernels up, restoring the level and the worker budget
// afterwards.
func forEachLevel(t *testing.T, fn func(level string)) {
	t.Helper()
	oldWorkers := MatMulWorkers()
	defer SetMatMulWorkers(oldWorkers)
	for _, name := range levelNames {
		restore, ok := SetKernelLevel(name)
		if !ok {
			t.Logf("dispatch level %s: not supported by this CPU, skipped", name)
			continue
		}
		func() {
			defer restore() // also when fn fails the test
			fn(name)
		}()
	}
}

// forEachKernelMode runs fn at every level, each serially and with a
// forced worker budget.
func forEachKernelMode(t *testing.T, fn func(label string)) {
	t.Helper()
	forEachLevel(t, func(level string) {
		for _, workers := range []int{1, 4} {
			SetMatMulWorkers(workers)
			fn(fmt.Sprintf("%s-w%d", level, workers))
		}
	})
}

// clone returns a deep copy of t.
func clone(t *Tensor) *Tensor {
	return FromSlice(append([]float32(nil), t.Data...), t.Shape()...)
}

// matrix wraps data as an r×c tensor; unlike New it accepts an empty one.
func matrix(r *stats.RNG, rows, cols int) *Tensor {
	t := FromSlice(make([]float32, rows*cols), rows, cols)
	t.RandNorm(r, 1)
	return t
}

// TestMatMulMatchesNaive checks all four variants against the retained seed
// kernels. Both sides round every step to float32, in different orders (one
// fused chain against a multiply and an add per step), so they agree to
// about the float32 epsilon times √k.
func TestMatMulMatchesNaive(t *testing.T) {
	forEachKernelMode(t, func(mode string) {
		for _, s := range equivalenceShapes {
			label := fmt.Sprintf("%s-%dx%dx%d", mode, s.m, s.k, s.n)
			tol := 4e-6 * math.Sqrt(float64(s.k))
			r := stats.NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
			a, b := matrix(r, s.m, s.k), matrix(r, s.k, s.n)
			bt, at := matrix(r, s.n, s.k), matrix(r, s.k, s.m)
			base := matrix(r, s.m, s.n)

			got, want := New(s.m, s.n), New(s.m, s.n)
			MatMulInto(got, a, b)
			naiveMatMulInto(want, a, b)
			assertTensorsClose(t, got, want, tol, label+"-MatMulInto")

			got, want = clone(base), clone(base)
			MatMulTransposeB(got, a, bt)
			naiveMatMulTransposeB(want, a, bt)
			assertTensorsClose(t, got, want, tol, label+"-MatMulTransposeB")

			got, want = clone(base), New(s.m, s.n)
			MatMulTransposeAInto(got, at, b)
			fmaChain(want.Data, s.m, s.k, s.n, at.Data, 1, s.m, b.Data, s.n, 1)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeAInto")

			got, want = clone(base), clone(base)
			MatMulTransposeBAdd(got, a, bt)
			naiveMatMulTransposeBAdd(want, a, bt)
			assertTensorsClose(t, got, want, tol, label+"-MatMulTransposeBAdd")

			got, want = clone(base), clone(base)
			MatMulTransposeA(got, at, b)
			naiveMatMulTransposeA(want, at, b)
			assertTensorsClose(t, got, want, tol, label+"-MatMulTransposeA")
		}
	})
}

// fmaChain is the bit contract of every variant, written out: each element
// of c is one chain of float32 fused multiply-adds over ascending p that
// starts from the element's own value. a′(i,p) is a[i*ars+p*aps], b′(p,j)
// is b[p*brs+j*bcs]. TestFMA32IsExactlyRounded pins fma32 itself.
func fmaChain(c []float32, m, k, n int, a []float32, ars, aps int, b []float32, brs, bcs int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc = fma32(a[i*ars+p*aps], b[p*brs+j*bcs], acc)
			}
			c[i*n+j] = acc
		}
	}
}

func assertTensorsBitEqual(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
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

			got, want := clone(base), New(s.m, s.n)
			MatMulInto(got, a, b)
			fmaChain(want.Data, s.m, s.k, s.n, a.Data, s.k, 1, b.Data, s.n, 1)
			assertTensorsBitEqual(t, got, want, label+"-MatMulInto")

			got, want = clone(base), clone(base)
			MatMulTransposeA(got, at, b)
			fmaChain(want.Data, s.m, s.k, s.n, at.Data, 1, s.m, b.Data, s.n, 1)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeA")

			got, want = clone(base), New(s.m, s.n)
			MatMulTransposeAInto(got, at, b)
			fmaChain(want.Data, s.m, s.k, s.n, at.Data, 1, s.m, b.Data, s.n, 1)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeAInto")

			got, want = clone(base), clone(base)
			MatMulTransposeBAdd(got, a, bt)
			fmaChain(want.Data, s.m, s.k, s.n, a.Data, s.k, 1, bt.Data, 1, s.k)
			assertTensorsBitEqual(t, got, want, label+"-MatMulTransposeBAdd")

			got, want = clone(base), New(s.m, s.n)
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
		out := [3]*Tensor{New(m, n), clone(base), clone(base)}
		MatMulInto(out[0], a, b)
		MatMulTransposeA(out[1], at, b)
		MatMulTransposeBAdd(out[2], a, bt)
		return out
	}

	forEachLevel(t, func(level string) {
		SetMatMulWorkers(1)
		serial := run()
		for _, w := range []int{2, 3, 8} {
			SetMatMulWorkers(w)
			for v, par := range run() {
				assertTensorsBitEqual(t, par, serial[v], fmt.Sprintf("%s workers=%d variant %d", level, w, v))
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
		s[i] = float32(i)
	}
	PutScratch(s)
	s2 := GetScratch(50)
	if len(s2) != 50 {
		t.Fatalf("GetScratch(50) returned len %d", len(s2))
	}
	PutScratch(s2)
}

// exactFMA32 is the float32 nearest (ties to even) to the exact a·b+c,
// computed in arbitrary precision: the definition fma32 implements. The
// operands must be finite.
func exactFMA32(a, b, c float32) float32 {
	const prec = 1024 // wider than any exact a·b+c of finite float32s
	x := new(big.Float).SetPrec(prec).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetPrec(prec).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetPrec(prec).SetFloat64(float64(c)))
	f, _ := x.Float32()
	return f
}

// fmaTile draws one 4×32 tile of FMA operands — element (i,j) is
// fma(a[i], b[j], c[i·32+j]) — of one of the three kinds a float32 FMA can
// get wrong: arbitrary finite bit patterns (wide exponent spreads,
// subnormals), near-ties (a·b just off a float32 midpoint, c far below it)
// and cancellations (c ≈ −a·b).
func fmaTile(r *stats.RNG, kind int) (a [gemmMR]float32, b [gemmNR]float32, c [gemmMR * gemmNR]float32) {
	finite := func() float32 {
		for {
			if f := math.Float32frombits(uint32(r.Uint64())); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	}
	sign := func() float32 { return float32(1 - 2*r.Intn(2)) }
	nearOne := func() float32 { return 1 + float32(1+r.Intn(1<<11))*0x1p-12 }
	for i := range a {
		switch kind {
		case 0:
			a[i] = finite()
		case 1:
			a[i] = sign() * nearOne()
		default:
			a[i] = float32(r.Norm())
		}
	}
	for j := range b {
		switch kind {
		case 0:
			b[j] = finite()
		case 1:
			b[j] = nearOne()
		default:
			b[j] = float32(r.Norm())
		}
	}
	for e := range c {
		switch kind {
		case 0:
			c[e] = finite()
		case 1:
			c[e] = sign() * float32(math.Ldexp(1, -30-r.Intn(80)))
		default:
			c[e] = -a[e/gemmNR]*b[e%gemmNR] + float32(r.Norm())*0x1p-30
		}
	}
	return a, b, c
}

// TestFMA32IsExactlyRounded pins the portable kernel's one rounding: fma32
// equals the arbitrary-precision a·b+c rounded to float32, including the
// case where float32(math.FMA(a, b, c)) double-rounds; and at every
// dispatch level the CPU has — the portable tile, the AVX2 4×16 halves and
// the AVX-512 4×32 tile — the tile returns the same bits (k = 1 makes each
// element of the 4×32 tile one FMA).
func TestFMA32IsExactlyRounded(t *testing.T) {
	const a, b, c = float32(1 + 0x1p-12), float32(1 + 0x1p-12), float32(0x1p-60)
	if got, want := fma32(a, b, c), float32(1+0x1p-11+0x1p-23); got != want {
		t.Fatalf("fma32(1+2⁻¹², 1+2⁻¹², 2⁻⁶⁰) = %x, want %x", math.Float32bits(got), math.Float32bits(want))
	}
	if twice := float32(math.FMA(float64(a), float64(b), float64(c))); twice != float32(1+0x1p-11) {
		t.Fatalf("the double-rounding witness no longer double-rounds: %x", math.Float32bits(twice))
	}
	type tile struct {
		a    [gemmMR]float32
		b    [gemmNR]float32
		c    [gemmMR * gemmNR]float32
		want [gemmMR * gemmNR]float32
	}
	r := stats.NewRNG(77)
	tiles := make([]tile, 600)
	for n := range tiles {
		tl := &tiles[n]
		tl.a, tl.b, tl.c = fmaTile(r, n%3)
		for e := range tl.want {
			x, y, z := tl.a[e/gemmNR], tl.b[e%gemmNR], tl.c[e]
			tl.want[e] = exactFMA32(x, y, z)
			if g := fma32(x, y, z); math.Float32bits(g) != math.Float32bits(tl.want[e]) {
				t.Fatalf("fma32(%g, %g, %g) = %g (%x), exact %g (%x)", x, y, z, g, math.Float32bits(g), tl.want[e], math.Float32bits(tl.want[e]))
			}
		}
	}
	forEachLevel(t, func(level string) {
		for n := range tiles {
			tl := &tiles[n]
			got := tl.c
			gemmTile(got[:], gemmNR, tl.a[:], 1, 1, tl.b[:], gemmNR, 1, gemmNR, false)
			for e := range got {
				if math.Float32bits(got[e]) != math.Float32bits(tl.want[e]) {
					t.Fatalf("%s tile fma(%g, %g, %g) = %x, exact %x", level, tl.a[e/gemmNR], tl.b[e%gemmNR], tl.c[e],
						math.Float32bits(got[e]), math.Float32bits(tl.want[e]))
				}
			}
		}
	})
}

// TestZeroStartTileMatchesLoadedTile holds the tile's zero-start entry to
// its load-C twin at every level: started from +0 over a C full of other
// values (NaN, −0, infinities among them), it must leave the bits the
// loading tile leaves on a C cleared to +0, for both halves and reduction
// lengths 1 to 9.
func TestZeroStartTileMatchesLoadedTile(t *testing.T) {
	forEachLevel(t, func(level string) {
		r := stats.NewRNG(47)
		for k := 1; k <= 9; k++ {
			for _, nr := range []int{gemmHalf, gemmNR} {
				a, b := matrix(r, gemmMR, k), matrix(r, k, gemmNR)
				a.Data[0], b.Data[1] = float32(math.Inf(1)), float32(math.Copysign(0, -1))
				want := make([]float32, gemmMR*gemmNR)
				gemmTile(want, gemmNR, a.Data, k, 1, b.Data, gemmNR, k, nr, false)
				got := matrix(r, gemmMR, gemmNR).Data
				got[0], got[1], got[2] = float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(-1))
				gemmTile(got, gemmNR, a.Data, k, 1, b.Data, gemmNR, k, nr, true)
				for i := 0; i < gemmMR; i++ {
					for j := 0; j < nr; j++ {
						if e := i*gemmNR + j; math.Float32bits(got[e]) != math.Float32bits(want[e]) {
							t.Fatalf("%s k=%d nr=%d (%d,%d): zero-start %x, loaded +0 %x", level, k, nr, i, j,
								math.Float32bits(got[e]), math.Float32bits(want[e]))
						}
					}
				}
			}
		}
	})
}
