package tensor

import (
	"fmt"
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
// a single ascending-p FMA chain that starts from C's own value, or from
// +0 for the overwriting variants, whose tiles start their accumulators at
// +0 instead of loading C (the bits a cleared C would give) — on every
// architecture, on interior and edge tiles alike, whatever the worker
// count. The im2col lowering in
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
	// gemmMR×gemmNR is the register tile: four rows of two 16-lane vectors
	// fill eight ZMM accumulators, enough independent chains to cover the
	// FMA latency on two issue ports, and leave room for the two B′
	// vectors and four A′ broadcasts of a reduction step. Below AVX-512
	// the tile runs as two 4×16 halves of eight 8-lane accumulators each,
	// and an edge tile skips the half that holds only padding.
	gemmMR = 4
	gemmNR = 32
	// gemmHalf is the width of one half of the tile.
	gemmHalf = gemmNR / 2
	// minParallelWork is the m·k·n multiply-add count below which a product
	// runs serially. Two workers against one on the two-vCPU benchmark
	// machine: 2.0 M multiply-adds take 1.4× the serial time, 4.1 M break
	// even, 6.4 M (the paper CNN's dense layer at batch 16) take 0.80× in
	// the median but 0.93× in the best run, and from 8.4 M on the gain holds
	// in both (0.72× / 0.84×, 0.62× / 0.72× at 16.8 M).
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

// The kernel dispatch levels. One is chosen at init (detectLevel) for
// every kernel in the package; every level computes the same bits.
const (
	// levelPortable runs the Go loops: what arm64, the paper's boards,
	// runs and what amd64 falls back to.
	levelPortable = iota
	// levelAVX2 runs the AVX2 elementwise, row and pool kernels and the
	// 4×32 tile as two 4×16 YMM halves.
	levelAVX2
	// levelAVX512 is levelAVX2 with the 4×32 tile in eight ZMM
	// accumulators.
	levelAVX512
)

var levelNames = [...]string{levelPortable: "portable", levelAVX2: "avx2", levelAVX512: "avx512"}

// kernelLevel is the level every kernel dispatches on; tests set it to
// run each level in turn.
var kernelLevel = detectLevel()

// SetKernelLevel makes every kernel of the package run at the named
// dispatch level — "portable", "avx2" or "avx512" — and returns a function
// that restores the previous one. It reports false and changes nothing
// when the name is unknown or this CPU cannot run that level. The levels
// compute the same bits, so the switch only lets a caller check that; it
// must not race with a running kernel.
func SetKernelLevel(name string) (restore func(), ok bool) {
	for l, n := range levelNames {
		if n == name && l <= detectLevel() {
			old := kernelLevel
			kernelLevel = l
			return func() { kernelLevel = old }, true
		}
	}
	return nil, false
}

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

// gemmOp describes one product C (+)= A′·B′ over strided views, so the
// public variants differ only in how they fill it in: C(i,j) sits at
// c[i*crs+j*ccs], A′(i,p) at a[i*ars+p*aps], B′(p,j) at b[p*brs+j*bcs],
// and zero makes the product overwrite C instead of adding to it.
// The micro-kernel wants rows of B′ and of C contiguous; a view that is not
// (bcs != 1, ccs != 1) goes through a packed panel or the stack tile.
type gemmOp struct {
	c        []float32
	crs, ccs int
	a        []float32
	ars, aps int
	b        []float32
	brs, bcs int
	m, k, n  int
	zero     bool
}

// gemmWorkspace holds the packed panels of one rows() call: aPanel the
// zero-padded k×MR edge rows of A′, bPanel one k×NR column tile of B′. The
// buffers grow to the largest k seen and are reused through gemmPool, which
// is private to the GEMM so its sizes never mix with GetScratch's.
type gemmWorkspace struct{ aPanel, bPanel []float32 }

var gemmPool = sync.Pool{New: func() any { return new(gemmWorkspace) }}

func growPanel(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// run executes the product, fanning row blocks of C out to helpers when it
// is large enough to pay for them.
func (g gemmOp) run() {
	if g.k == 0 && g.zero {
		for i := 0; i < g.m; i++ {
			for j := 0; j < g.n; j++ {
				g.c[i*g.crs+j*g.ccs] = 0
			}
		}
	}
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
	var aEdge []float32
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
				gemmTile(g.c[i*g.crs+j:], g.crs, g.a[i*g.ars:], g.ars, g.aps, b, ldb, g.k, gemmNR, g.zero)
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
func packPanel(dst []float32, width int, src []float32, vs, ps, w, k int) {
	if w < width {
		clear(dst)
	}
	switch {
	case vs == 1:
		// Each step p reads w adjacent elements: a strided row copy.
		CopyRows(dst, width, src, ps, k, w)
	case ps == 1:
		// Each vector is contiguous: a transpose.
		transposePanel(dst, width, src, vs, w, k)
	default:
		for s := 0; s < w; s++ {
			v := src[s*vs:]
			for p := 0; p < k; p++ {
				dst[p*width+s] = v[p*ps]
			}
		}
	}
}

// transposePanel writes dst[p*width+s] = src[s*vs+p] for s < w, p < k.
// The vector kernel moves the 8×8 blocks through registers; the loop
// below it takes the steps past the last block eight vectors at a time
// (all of them at the portable level), then the last w%8 vectors one at a
// time.
func transposePanel(dst []float32, width int, src []float32, vs, w, k int) {
	w8, k8 := w&^7, 0
	if kernelLevel >= levelAVX2 && width%8 == 0 && w8 > 0 && k >= 8 {
		k8 = k &^ 7
		_ = dst[(k8-1)*width+w8-1]
		_ = src[(w8-1)*vs+k8-1]
		transposeAVX2(&dst[0], width, &src[0], vs, w8, k8)
	}
	for s := 0; s < w8; s += 8 {
		// Each vector sliced to length k lets the compiler drop the
		// bounds checks on v0[p] … v7[p].
		v0, v1, v2, v3 := src[s*vs:][:k], src[(s+1)*vs:][:k], src[(s+2)*vs:][:k], src[(s+3)*vs:][:k]
		v4, v5, v6, v7 := src[(s+4)*vs:][:k], src[(s+5)*vs:][:k], src[(s+6)*vs:][:k], src[(s+7)*vs:][:k]
		for p := k8; p < len(v0); p++ {
			d := dst[p*width+s : p*width+s+8 : p*width+s+8]
			d[0], d[1], d[2], d[3] = v0[p], v1[p], v2[p], v3[p]
			d[4], d[5], d[6], d[7] = v4[p], v5[p], v6[p], v7[p]
		}
	}
	for s := w8; s < w; s++ {
		for p, x := range src[s*vs:][:k] {
			dst[p*width+s] = x
		}
	}
}

// edgeTile runs the micro-kernel on an mr×nr tile of C that cannot be
// updated in place — a partial tile, or any tile of a transposed C: it is
// copied into a zero-padded stack tile, updated there and copied back, so
// every element still is one ascending-p FMA chain from its own value. An
// overwriting product starts from +0, which the stack tile already holds,
// so it copies nothing in.
func (g *gemmOp) edgeTile(i, j, mr, nr int, a []float32, ars, aps int, b []float32, ldb int) {
	var t [gemmMR * gemmNR]float32
	if g.ccs == 1 {
		c := g.c[i*g.crs+j:]
		if !g.zero {
			CopyRows(t[:], gemmNR, c, g.crs, mr, nr)
		}
		gemmTile(t[:], gemmNR, a, ars, aps, b, ldb, g.k, nr, g.zero)
		CopyRows(c, g.crs, t[:], gemmNR, mr, nr)
		return
	}
	for r := 0; r < mr && !g.zero; r++ {
		for s := 0; s < nr; s++ {
			t[r*gemmNR+s] = g.c[(i+r)*g.crs+(j+s)*g.ccs]
		}
	}
	gemmTile(t[:], gemmNR, a, ars, aps, b, ldb, g.k, nr, g.zero)
	for r := 0; r < mr; r++ {
		for s := 0; s < nr; s++ {
			g.c[(i+r)*g.crs+(j+s)*g.ccs] = t[r*gemmNR+s]
		}
	}
}

// gemmTile is the one micro-kernel contract: for i < MR, j < NR and p
// ascending in [0,k), c[i*ldc+j] = fma(a[i*ars+p*aps], b[p*ldb+j], c[i*ldc+j]),
// each fma rounded once to float32, where with zero the chain starts from
// +0 instead of c's value. Columns at and past nr may be left alone: they
// hold padding the caller drops. Every level produces the same bits. k
// must be > 0.
func gemmTile(c []float32, ldc int, a []float32, ars, aps int, b []float32, ldb, k, nr int, zero bool) {
	switch kernelLevel {
	case levelAVX512:
		gemmTileAVX512(&c[0], ldc, &a[0], ars, aps, &b[0], ldb, k, zero)
	case levelAVX2:
		gemmTileAVX2(&c[0], ldc, &a[0], ars, aps, &b[0], ldb, k, zero)
		if nr > gemmHalf {
			gemmTileAVX2(&c[gemmHalf], ldc, &a[0], ars, aps, &b[gemmHalf], ldb, k, zero)
		}
	default:
		gemmTileGo(c, ldc, a, ars, aps, b, ldb, k, zero)
		if nr > gemmHalf {
			gemmTileGo(c[gemmHalf:], ldc, a, ars, aps, b[gemmHalf:], ldb, k, zero)
		}
	}
}

// gemmTileGo is the portable kernel for one 4×16 half of the tile: one row
// at a time so its sixteen accumulators stay in registers where the
// architecture has enough of them; fma32 is the exactly rounded float32
// fused multiply-add.
func gemmTileGo(c []float32, ldc int, a []float32, ars, aps int, b []float32, ldb, k int, zero bool) {
	for i := 0; i < gemmMR; i++ {
		ci := c[i*ldc : i*ldc+gemmHalf : i*ldc+gemmHalf]
		var c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15 float32
		if !zero {
			c0, c1, c2, c3, c4, c5, c6, c7 = ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7]
			c8, c9, c10, c11, c12, c13, c14, c15 = ci[8], ci[9], ci[10], ci[11], ci[12], ci[13], ci[14], ci[15]
		}
		for p := 0; p < k; p++ {
			av := a[i*ars+p*aps]
			bp := b[p*ldb : p*ldb+gemmHalf : p*ldb+gemmHalf]
			c0 = fma32(av, bp[0], c0)
			c1 = fma32(av, bp[1], c1)
			c2 = fma32(av, bp[2], c2)
			c3 = fma32(av, bp[3], c3)
			c4 = fma32(av, bp[4], c4)
			c5 = fma32(av, bp[5], c5)
			c6 = fma32(av, bp[6], c6)
			c7 = fma32(av, bp[7], c7)
			c8 = fma32(av, bp[8], c8)
			c9 = fma32(av, bp[9], c9)
			c10 = fma32(av, bp[10], c10)
			c11 = fma32(av, bp[11], c11)
			c12 = fma32(av, bp[12], c12)
			c13 = fma32(av, bp[13], c13)
			c14 = fma32(av, bp[14], c14)
			c15 = fma32(av, bp[15], c15)
		}
		ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7] = c0, c1, c2, c3, c4, c5, c6, c7
		ci[8], ci[9], ci[10], ci[11], ci[12], ci[13], ci[14], ci[15] = c8, c9, c10, c11, c12, c13, c14, c15
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
	gemmOp{c: c.Data, crs: n, ccs: 1, a: a.Data, ars: k, aps: 1, b: b.Data, brs: n, bcs: 1, m: m, k: k, n: n, zero: true}.run()
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
// one side has to be transposed into k×NR panels: bᵀ, or a for cᵀ = b @ aᵀ,
// whose tiles of c then all go through the stack tile. The orientation
// with fewer MR×NR tiles wins, ties packing b: a tile is a full k-step
// reduction, while a pack moves each element once, eight by eight. So a
// convolution's weight gradient (m = OutC rows against a wide patch
// matrix) and a dense layer's input gradient (a small batch against the
// whole weight matrix) both pack b; transposed, the batch would fill a
// fraction of each 32-wide tile.
func matMulTransposeB(c, a, b *Tensor, add bool) {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(1) != a.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTransposeB shape mismatch %v x %v", a.shape, b.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTransposeB output shape mismatch")
	}
	if gemmTiles(m, n) <= gemmTiles(n, m) {
		gemmOp{c: c.Data, crs: n, ccs: 1, a: a.Data, ars: k, aps: 1, b: b.Data, brs: 1, bcs: k, m: m, k: k, n: n, zero: !add}.run()
		return
	}
	gemmOp{c: c.Data, crs: 1, ccs: n, a: b.Data, ars: k, aps: 1, b: a.Data, brs: 1, bcs: k, m: n, k: k, n: m, zero: !add}.run()
}

// gemmTiles is the number of register tiles an m×n product walks.
func gemmTiles(m, n int) int {
	return (m + gemmMR - 1) / gemmMR * ((n + gemmNR - 1) / gemmNR)
}

// MatMulTransposeA computes c += aᵀ @ b where a is (k×m) and b is (k×n),
// accumulating into the existing (m×n) tensor c: what weight-gradient
// computation wants across batches.
func MatMulTransposeA(c, a, b *Tensor) {
	matMulTransposeA(c, a, b, false)
}

// MatMulTransposeAInto computes c = aᵀ @ b where a is (k×m) and b is
// (k×n), overwriting the existing (m×n) tensor c.
func MatMulTransposeAInto(c, a, b *Tensor) {
	matMulTransposeA(c, a, b, true)
}

func matMulTransposeA(c, a, b *Tensor, zero bool) {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(0) != a.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTransposeA shape mismatch %v x %v", a.shape, b.shape))
	}
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTransposeA output shape mismatch")
	}
	gemmOp{c: c.Data, crs: n, ccs: 1, a: a.Data, ars: 1, aps: m, b: b.Data, brs: n, bcs: 1, m: m, k: k, n: n, zero: zero}.run()
}
