package dataset

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// segmentMap encodes which of the seven segments (a..g) each digit lights,
// in the order: a(top), b(top-right), c(bottom-right), d(bottom),
// e(bottom-left), f(top-left), g(middle).
var segmentMap = [10][7]bool{
	{true, true, true, true, true, true, false},     // 0
	{false, true, true, false, false, false, false}, // 1
	{true, true, false, true, true, false, true},    // 2
	{true, true, true, true, false, false, true},    // 3
	{false, true, true, false, false, true, true},   // 4
	{true, false, true, true, false, true, true},    // 5
	{true, false, true, true, true, true, true},     // 6
	{true, true, true, false, false, false, false},  // 7
	{true, true, true, true, true, true, true},      // 8
	{true, true, true, true, false, true, true},     // 9
}

// minChunk is the fewest samples a render worker takes: a smaller share
// costs more to hand out than it saves.
const minChunk = 32

// rerenders counts the sets render drew a second time as one chunk.
var rerenders atomic.Int64

// render calls sample(i, r, norms) for every i in [0, n), with r at the
// position of seed's stream a serial pass over samples 0..i−1 would leave,
// so the set is the same bits for any GOMAXPROCS. Every sample takes a
// scalar draws and then b normals (DESIGN.md §Synthetic data), which it
// fills into norms, its worker's scratch of b.
func render(n, a, b int, seed uint64, sample func(i int, r *stats.RNG, norms []float64)) {
	workers := min(runtime.GOMAXPROCS(0), (n+minChunk-1)/minChunk)
	if !renderChunks(n, a, b, seed, workers, sample) {
		// A u == 0 redraw shifted the stream (p = 2⁻⁵³ per pair): the
		// chunks after it started at the wrong draw.
		rerenders.Add(1)
		renderChunks(n, a, b, seed, 1, sample)
	}
}

// renderChunks renders [0, n) as workers contiguous chunks, concurrently,
// and reports whether every chunk ended at the draw where the next begins.
func renderChunks(n, a, b int, seed uint64, workers int, sample func(int, *stats.RNG, []float64)) bool {
	// first is sample j's first draw: a scalars per earlier sample, and two
	// draws per Box-Muller pair their normals began.
	first := func(j int) uint64 { return uint64(a*j + (j*b+1)/2*2) }
	ok := make([]bool, workers)
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := stats.NewRNG(seed)
			if lo*b%2 == 1 {
				// Sample lo opens on the spare of the pair sample lo−1's
				// last normal drew: regenerate that pair.
				r.Skip(first(lo) - 2)
				r.Norm()
			} else {
				r.Skip(first(lo))
			}
			norms := make([]float64, b)
			for i := lo; i < hi; i++ {
				sample(i, r, norms)
			}
			next := stats.NewRNG(seed)
			next.Skip(first(hi))
			ok[w] = r.Uint64() == next.Uint64()
		}()
	}
	wg.Wait()
	return !slices.Contains(ok, false)
}

// SynthMNIST renders n noisy seven-segment digit images of the given
// square size (≥ 12) into a 10-class dataset. Each sample applies a random
// translation, per-pixel Gaussian noise and a random contrast factor, so
// the task requires genuine feature learning rather than pixel lookup.
func SynthMNIST(n, size int, seed uint64) *Dataset {
	if n < 1 || size < 12 {
		panic(fmt.Sprintf("dataset: SynthMNIST needs at least 1 sample of at least 12 pixels a side, got %d of size %d", n, size))
	}
	ds := &Dataset{
		X:       tensor.New(n, 1, size, size),
		Labels:  make([]int, n),
		Classes: 10,
		Shape:   []int{1, size, size},
	}
	plane := size * size
	// Four scalar draws (digit, two jitters, contrast), then a normal per pixel.
	render(n, 4, plane, seed, func(i int, r *stats.RNG, norms []float64) {
		digit := r.Intn(10)
		ds.Labels[i] = digit
		renderDigit(ds.X.Data[i*plane:(i+1)*plane], size, digit, r, norms)
	})
	return ds
}

// renderDigit draws one jittered glyph into a size×size buffer, its noise
// through norms, a scratch of size². Pixels are composed in float64 and
// stored as float32; every product is rounded on its own (float64(…)), so
// no architecture fuses one into a multiply-add. Whatever img held is
// overwritten, so a set can be rendered again in place.
func renderDigit(img []float32, size, digit int, r *stats.RNG, norms []float64) {
	clear(img)
	// Glyph box occupies roughly the central 60% of the canvas; jitter
	// shifts it by up to ±size/8 in each axis.
	margin := size / 5
	jx := r.Intn(size/4+1) - size/8
	jy := r.Intn(size/4+1) - size/8
	x0, y0 := margin+jx, margin+jy
	x1, y1 := size-margin+jx, size-margin+jy
	thickness := max(size/10, 1)
	contrast := 0.7 + float64(0.6*r.Float64())

	fill := func(ax, ay, bx, by int) {
		for y := ay; y < by; y++ {
			if y < 0 || y >= size {
				continue
			}
			for x := ax; x < bx; x++ {
				if x < 0 || x >= size {
					continue
				}
				img[y*size+x] = float32(contrast)
			}
		}
	}
	midY := (y0 + y1) / 2
	segs := segmentMap[digit]
	if segs[0] { // a: top
		fill(x0, y0, x1, y0+thickness)
	}
	if segs[1] { // b: top-right
		fill(x1-thickness, y0, x1, midY)
	}
	if segs[2] { // c: bottom-right
		fill(x1-thickness, midY, x1, y1)
	}
	if segs[3] { // d: bottom
		fill(x0, y1-thickness, x1, y1)
	}
	if segs[4] { // e: bottom-left
		fill(x0, midY, x0+thickness, y1)
	}
	if segs[5] { // f: top-left
		fill(x0, y0, x0+thickness, midY)
	}
	if segs[6] { // g: middle
		fill(x0, midY-thickness/2, x1, midY+max(thickness/2, 1))
	}
	// Additive pixel noise.
	tensor.NormFill(norms, r)
	for i, v := range norms {
		img[i] = float32(float64(img[i]) + float64(v*0.15))
	}
}

// SynthCIFAR composes n small colour images of the given square size into
// a classes-way task. Each class is a distinct combination of texture
// orientation, spatial frequency and colour mixing, with sample-level phase
// jitter and noise — a colour-texture recognition problem standing in for
// CIFAR-10/100.
func SynthCIFAR(n, size, classes int, seed uint64) *Dataset {
	if classes < 2 {
		panic("dataset: SynthCIFAR needs at least 2 classes")
	}
	if n < 1 || size < 1 {
		panic(fmt.Sprintf("dataset: SynthCIFAR needs at least 1 sample of at least 1 pixel, got %d of size %d", n, size))
	}
	ds := &Dataset{
		X:       tensor.New(n, 3, size, size),
		Labels:  make([]int, n),
		Classes: classes,
		Shape:   []int{3, size, size},
	}
	plane := size * size
	// Two scalar draws (class, phase), then a normal per pixel and channel.
	render(n, 2, 3*plane, seed, func(i int, r *stats.RNG, norms []float64) {
		cls := r.Intn(classes)
		ds.Labels[i] = cls
		// Class-determined texture parameters.
		orient := float64(cls%8) * 0.3926990816987241 // π/8 steps
		sinO, cosO := stats.Sincos(orient)
		freq := 1 + float64((cls/8)%4)
		colr := float64(cls%3)/3 + 0.3
		colg := float64((cls+1)%3)/3 + 0.3
		colb := float64((cls+2)%3)/3 + 0.3
		phase := float64(r.Float64() * 6.283185307179586)
		base := ds.X.Data[i*3*plane:]
		// Three consecutive normals per pixel, red, green, blue.
		tensor.NormFill(norms, r)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				u := float64(x)/float64(size) - 0.5
				v := float64(y)/float64(size) - 0.5
				t := float64(u*cosO) + float64(v*sinO)
				sin, _ := stats.Sincos(float64(2*3.141592653589793*freq*t*4) + phase)
				val := 0.5 + float64(0.5*sin)
				idx := y*size + x
				n := norms[3*idx : 3*idx+3]
				base[idx] = float32(float64(val*colr) + float64(n[0]*0.1))
				base[plane+idx] = float32(float64(val*colg) + float64(n[1]*0.1))
				base[2*plane+idx] = float32(float64(val*colb) + float64(n[2]*0.1))
			}
		}
	})
	return ds
}
