package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Register-tiled GEMM.
//
// All four matmul variants (MatMulInto, MatMulTransposeA, MatMulTransposeB,
// MatMulTransposeBAdd) are one driver, gemmOp, over strided views of the
// operands: it walks C in MR×NR tiles and hands each to one micro-kernel
// that loads the tile into registers, runs the whole reduction as
// acc = fma(a, b, acc) and stores it once. Every element of C is therefore
// a single ascending-p FMA chain that starts from C's own value (zero for
// the overwriting variants) — on every architecture, on interior and edge
// tiles alike, whatever the worker count. The im2col lowering in
// internal/nn funnels all convolution work through this driver, so it is
// the hot path of every experiment in the repository.
//
// Large products additionally fan out across goroutines over disjoint row
// blocks of C. The fan-out is gated twice: products below minParallelWork
// multiply-adds stay serial, and helper goroutines are drawn from a global
// token budget (SetMatMulWorkers) shared by every concurrent matmul, so
// client-level parallelism in fl.SyncEngine cannot oversubscribe the
// machine — at most budget-1 helper goroutines exist process-wide no matter
// how many clients train at once.

const (
	// gemmMR×gemmNR is the register tile: four rows of two 4-lane vectors
	// fill eight accumulators, enough independent chains to cover the FMA
	// latency on two issue ports, and leave room for the two B′ vectors and
	// four A′ broadcasts of a reduction step.
	gemmMR = 4
	gemmNR = 8
	// minParallelWork is the m·k·n multiply-add count below which a product
	// runs serially. At ~17 G multiply-adds per second per core a product
	// has to last about half a millisecond before waking a second core pays
	// for the handoff: on the two-core benchmark machine 6.4 M (the paper
	// CNN's dense layer at batch 16) breaks even and 9.2 M gains 1.3×, while
	// a per-sample conv2 product (1.6 M, both of bench/'s GEMM probes) lost
	// 20 % to the fan-out it used to get.
	minParallelWork = 1 << 23
)

var (
	// matmulBudget is the total worker budget (including the calling
	// goroutine); helperTokens holds the currently available helper slots.
	matmulBudget atomic.Int64
	helperTokens atomic.Int64
)

func init() { SetMatMulWorkers(runtime.GOMAXPROCS(0)) }

// SetMatMulWorkers sets the global matmul worker budget: the maximum number
// of goroutines (including callers) simultaneously executing GEMM work
// across the whole process. n < 1 is treated as 1 (fully serial). The
// budget is shared by all concurrent matmuls, so setting it to GOMAXPROCS
// keeps intra-op and inter-op parallelism jointly bounded.
func SetMatMulWorkers(n int) {
	if n < 1 {
		n = 1
	}
	old := matmulBudget.Swap(int64(n))
	if old == 0 {
		// First call (from init): the zero-value state has no helper
		// tokens, i.e. behaves like budget 1.
		old = 1
	}
	helperTokens.Add(int64(n) - old)
}

// MatMulWorkers returns the current worker budget.
func MatMulWorkers() int { return int(matmulBudget.Load()) }

// acquireHelpers grabs up to max helper tokens without blocking.
func acquireHelpers(max int) int {
	if max <= 0 {
		return 0
	}
	got := 0
	for got < max {
		free := helperTokens.Load()
		if free <= 0 {
			break
		}
		take := free
		if take > int64(max-got) {
			take = int64(max - got)
		}
		if helperTokens.CompareAndSwap(free, free-take) {
			got += int(take)
		}
	}
	return got
}

func releaseHelpers(n int) {
	if n > 0 {
		helperTokens.Add(int64(n))
	}
}

// simdEnabled selects the AVX2+FMA micro-kernels when the CPU supports
// them; the pure-Go blocked kernels are the universal fallback. Tests flip
// this to exercise both paths.
var simdEnabled = detectSIMD()

// planHelpers acquires helper tokens for a product of the given row count
// and m·k·n multiply-add work, returning 0 when the product should run
// serially (too small, or no budget free).
func planHelpers(m, work int) int {
	if work < minParallelWork || m < 2*gemmMR {
		return 0
	}
	return acquireHelpers(m/gemmMR - 1)
}

// runRows splits the row range [0, m) across the calling goroutine and
// helpers (> 0) already-acquired helper tokens, calling fn on disjoint
// sub-ranges. Chunks are aligned to gemmMR so every worker runs full
// micro-kernel tiles; per-row results do not depend on the partition, so
// output is bit-identical to a serial run.
func runRows(helpers, m int, fn func(i0, i1 int)) {
	workers := helpers + 1
	chunk := (m + workers - 1) / workers
	chunk = (chunk + gemmMR - 1) / gemmMR * gemmMR
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		s := w * chunk
		if s >= m {
			break
		}
		e := min(s+chunk, m)
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(s, e)
	}
	fn(0, min(chunk, m))
	wg.Wait()
	releaseHelpers(helpers)
}

// gemmOp describes one product C (+)= A′·B′ over strided views, so the four
// public variants differ only in how they fill it in: C(i,j) sits at
// c[i*crs+j*ccs], A′(i,p) at a[i*ars+p*aps], B′(p,j) at b[p*brs+j*bcs].
// The micro-kernel wants rows of B′ and of C contiguous; a view that is not
// (bcs != 1, ccs != 1) goes through a packed panel or the stack tile.
type gemmOp struct {
	c        []float64
	crs, ccs int
	a        []float64
	ars, aps int
	b        []float64
	brs, bcs int
	m, k, n  int
}

// gemmWorkspace holds the packed panels of one rows() call: aPanel the
// zero-padded k×MR edge rows of A′, bPanel one k×NR column tile of B′. The
// buffers grow to the largest k seen and are reused through gemmPool, which
// is private to the GEMM so its sizes never mix with GetScratch's.
type gemmWorkspace struct{ aPanel, bPanel []float64 }

var gemmPool = sync.Pool{New: func() any { return new(gemmWorkspace) }}

func growPanel(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// run executes the product, fanning row blocks of C out to helpers when it
// is large enough to pay for them.
func (g gemmOp) run() {
	if g.m == 0 || g.k == 0 || g.n == 0 {
		return
	}
	if helpers := planHelpers(g.m, g.m*g.k*g.n); helpers > 0 {
		h := g // heap copy for the closure, only on the fan-out path
		runRows(helpers, g.m, func(i0, i1 int) { h.rows(i0, i1) })
		return
	}
	g.rows(0, g.m)
}

// rows computes rows [i0,i1) of C. Column tiles are the outer loop so a
// panel of B′ is packed at most once and stays cache-resident while every
// row tile consumes it.
func (g *gemmOp) rows(i0, i1 int) {
	ws := gemmPool.Get().(*gemmWorkspace)
	iFull := i0 + (i1-i0)/gemmMR*gemmMR
	var aEdge []float64
	if iFull < i1 {
		ws.aPanel = growPanel(ws.aPanel, g.k*gemmMR)
		aEdge = ws.aPanel
		packPanel(aEdge, gemmMR, g.a[iFull*g.ars:], g.ars, g.aps, i1-iFull, g.k)
	}
	for j := 0; j < g.n; j += gemmNR {
		nr := min(gemmNR, g.n-j)
		b, ldb := g.b[j:], g.brs
		if g.bcs != 1 || nr < gemmNR {
			ws.bPanel = growPanel(ws.bPanel, g.k*gemmNR)
			b, ldb = ws.bPanel, gemmNR
			packPanel(b, gemmNR, g.b[j*g.bcs:], g.bcs, g.brs, nr, g.k)
		}
		if nr == gemmNR && g.ccs == 1 {
			for i := i0; i < iFull; i += gemmMR {
				gemmTile(g.c[i*g.crs+j:], g.crs, g.a[i*g.ars:], g.ars, g.aps, b, ldb, g.k)
			}
		} else {
			for i := i0; i < iFull; i += gemmMR {
				g.edgeTile(i, j, gemmMR, nr, g.a[i*g.ars:], g.ars, g.aps, b, ldb)
			}
		}
		if aEdge != nil {
			g.edgeTile(iFull, j, i1-iFull, nr, aEdge, 1, gemmMR, b, ldb)
		}
	}
	gemmPool.Put(ws)
}

// packPanel gathers w ≤ width strided vectors of length k into a p-major
// panel: dst[p*width+s] = src[s*vs+p*ps], zero in the lanes past w. It is
// the transpose the NT variant needs and the zero padding of edge tiles.
func packPanel(dst []float64, width int, src []float64, vs, ps, w, k int) {
	if w == gemmNR && ps == 1 {
		// The NT hot path: eight contiguous rows of the source at once.
		v0, v1, v2, v3 := src[:k], src[vs:][:k], src[2*vs:][:k], src[3*vs:][:k]
		v4, v5, v6, v7 := src[4*vs:][:k], src[5*vs:][:k], src[6*vs:][:k], src[7*vs:][:k]
		for p := range v0 {
			d := dst[p*gemmNR : p*gemmNR+gemmNR : p*gemmNR+gemmNR]
			d[0], d[1], d[2], d[3] = v0[p], v1[p], v2[p], v3[p]
			d[4], d[5], d[6], d[7] = v4[p], v5[p], v6[p], v7[p]
		}
		return
	}
	if w < width {
		clear(dst)
	}
	for s := 0; s < w; s++ {
		v := src[s*vs:]
		for p := 0; p < k; p++ {
			dst[p*width+s] = v[p*ps]
		}
	}
}

// edgeTile runs the micro-kernel on an mr×nr tile of C that cannot be
// updated in place — a partial tile, or any tile of a transposed C: it is
// copied into a zero-padded stack tile, updated there and copied back, so
// every element still is one ascending-p FMA chain from its own value.
func (g *gemmOp) edgeTile(i, j, mr, nr int, a []float64, ars, aps int, b []float64, ldb int) {
	var t [gemmMR * gemmNR]float64
	for r := 0; r < mr; r++ {
		for s := 0; s < nr; s++ {
			t[r*gemmNR+s] = g.c[(i+r)*g.crs+(j+s)*g.ccs]
		}
	}
	gemmTile(t[:], gemmNR, a, ars, aps, b, ldb, g.k)
	for r := 0; r < mr; r++ {
		for s := 0; s < nr; s++ {
			g.c[(i+r)*g.crs+(j+s)*g.ccs] = t[r*gemmNR+s]
		}
	}
}

// gemmTile is the one micro-kernel contract: for i < MR, j < NR and p
// ascending in [0,k), c[i*ldc+j] = fma(a[i*ars+p*aps], b[p*ldb+j], c[i*ldc+j]).
// The assembly and the portable kernel produce the same bits. k must be > 0.
func gemmTile(c []float64, ldc int, a []float64, ars, aps int, b []float64, ldb, k int) {
	if simdEnabled {
		gemmTileFMA(&c[0], ldc, &a[0], ars, aps, &b[0], ldb, k)
		return
	}
	gemmTileGo(c, ldc, a, ars, aps, b, ldb, k)
}

// gemmTileGo is the portable micro-kernel: one row of the tile at a time so
// its eight accumulators stay in registers; math.FMA compiles to the fused
// instruction wherever the hardware has one.
func gemmTileGo(c []float64, ldc int, a []float64, ars, aps int, b []float64, ldb, k int) {
	for i := 0; i < gemmMR; i++ {
		ci := c[i*ldc : i*ldc+gemmNR : i*ldc+gemmNR]
		c0, c1, c2, c3, c4, c5, c6, c7 := ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7]
		for p := 0; p < k; p++ {
			av := a[i*ars+p*aps]
			bp := b[p*ldb : p*ldb+gemmNR : p*ldb+gemmNR]
			c0 = math.FMA(av, bp[0], c0)
			c1 = math.FMA(av, bp[1], c1)
			c2 = math.FMA(av, bp[2], c2)
			c3 = math.FMA(av, bp[3], c3)
			c4 = math.FMA(av, bp[4], c4)
			c5 = math.FMA(av, bp[5], c5)
			c6 = math.FMA(av, bp[6], c6)
			c7 = math.FMA(av, bp[7], c7)
		}
		ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
}

// MatMulInto computes c = a @ b into an existing (m×n) tensor, where a is
// (m×k) and b is (k×n).
func MatMulInto(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %v x %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulInto output shape mismatch")
	}
	c.Zero()
	gemmOp{c: c.Data, crs: n, ccs: 1, a: a.Data, ars: k, aps: 1, b: b.Data, brs: n, bcs: 1, m: m, k: k, n: n}.run()
}

// MatMulTransposeB computes c = a @ bᵀ where a is (m×k) and b is (n×k),
// writing into the existing (m×n) tensor c. This avoids materialising the
// transpose in dense-layer backward passes.
func MatMulTransposeB(c, a, b *Tensor) {
	matMulTransposeB(c, a, b, false)
}

// MatMulTransposeBAdd computes c += a @ bᵀ where a is (m×k) and b is
// (n×k), accumulating into the existing (m×n) tensor c — the form
// weight-gradient accumulation across mini-batches wants.
func MatMulTransposeBAdd(c, a, b *Tensor) {
	matMulTransposeB(c, a, b, true)
}

// matMulTransposeB has no operand whose reduction index is the slow one, so
// one side has to be transposed into k×NR panels. Packing bᵀ moves n·k
// elements; computing cᵀ = b @ aᵀ instead packs the m·k elements of a but
// sends every tile of c through the stack tile (2·m·n moves). The cheaper
// side is picked by that count: the weight gradient of a convolution
// (m = OutC rows against a wide patch matrix) packs b, the input gradient
// of a dense layer (a small batch against the whole weight matrix) packs a.
func matMulTransposeB(c, a, b *Tensor, add bool) {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(1) != a.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTransposeB shape mismatch %v x %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTransposeB output shape mismatch")
	}
	if !add {
		c.Zero()
	}
	if n*k <= 2*m*n+m*k {
		gemmOp{c: c.Data, crs: n, ccs: 1, a: a.Data, ars: k, aps: 1, b: b.Data, brs: 1, bcs: k, m: m, k: k, n: n}.run()
		return
	}
	gemmOp{c: c.Data, crs: 1, ccs: n, a: b.Data, ars: k, aps: 1, b: a.Data, brs: 1, bcs: k, m: n, k: k, n: m}.run()
}

// MatMulTransposeA computes c += aᵀ @ b where a is (k×m) and b is (k×n),
// accumulating into the existing (m×n) tensor c (callers zero it if needed;
// accumulation is what weight-gradient computation wants across batches).
func MatMulTransposeA(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(0) != a.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTransposeA shape mismatch %v x %v", a.shape, b.shape))
	}
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTransposeA output shape mismatch")
	}
	gemmOp{c: c.Data, crs: n, ccs: 1, a: a.Data, ars: 1, aps: m, b: b.Data, brs: n, bcs: 1, m: m, k: k, n: n}.run()
}
