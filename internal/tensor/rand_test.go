package tensor

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
)

// checkFill fills n normals from a generator at seed, after `pre` calls of
// Norm (an odd pre leaves a spare cached), and wants what n more calls of
// Norm return, bit for bit, and both generators at the same place
// afterwards: the same next Norm (a spare left cached) and the same next
// draw.
func checkFill(t *testing.T, level string, seed uint64, pre, n int) {
	t.Helper()
	got, want := stats.NewRNG(seed), stats.NewRNG(seed)
	for range pre {
		got.Norm()
		want.Norm()
	}
	dst := make([]float64, n)
	NormFill(dst, got)
	for i, v := range dst {
		if w := want.Norm(); math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: seed %#x, %d after %d: normal %d is %v, want %v", level, seed, n, pre, i, v, w)
		}
	}
	if g, w := got.Norm(), want.Norm(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: seed %#x, %d after %d: the next Norm is %v, want %v", level, seed, n, pre, g, w)
	}
	if got.Uint64() != want.Uint64() {
		t.Fatalf("%s: seed %#x, %d after %d: the generator is not where %d Norm calls leave it", level, seed, n, pre, n)
	}
}

// TestNormFillMatchesNorm: at every dispatch level, NormFill is len(dst)
// calls of Norm — at lengths 0–33 (every tail of a group of four pairs,
// odd and even) and the paper CNN's 431 080, with a spare coming in and
// without — and so is it with a zero u at every lane of a group of four
// pairs, which the kernel leaves to Norm to draw again.
func TestNormFillMatchesNorm(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	forEachLevel(t, func(level string) {
		t.Logf("dispatch level %s", level)
		for _, pre := range []int{0, 1, 2} {
			for n := range 34 {
				checkFill(t, level, uint64(1000*n+pre), pre, n)
			}
			checkFill(t, level, uint64(7+pre), pre, 431_080)
		}
		// Seed −(k+1)·γ makes draw k 0. After pre normals (2⌈pre/2⌉
		// draws) pair p's u is draw 2⌈pre/2⌉ + 2p: put the zero on the u
		// of each pair of the second group of four, and past the
		// kernel's first call.
		for _, pre := range []int{0, 1} {
			for _, p := range []int{4, 5, 6, 7, 2*fillPairs + 3} {
				k := uint64(2*((pre+1)/2) + 2*p)
				r := stats.NewRNG(-(k + 1) * gamma)
				if r.Skip(k); r.Uint64() != 0 {
					t.Fatalf("draw %d of seed −(k+1)·γ is not 0", k)
				}
				for _, n := range []int{2*p + 2, 2*p + 9, 4 * fillPairs} {
					checkFill(t, fmt.Sprintf("%s, zero u at pair %d", level, p), -(k+1)*gamma, pre, n)
				}
			}
		}
	})
}

// TestRandNormChunks: RandNorm draws through NormFill in stack-sized
// chunks and rounds each normal·stddev once; the chunk seams change
// nothing.
func TestRandNormChunks(t *testing.T) {
	forEachLevel(t, func(level string) {
		for _, n := range []int{1, 511, 512, 513, 1500} {
			x := New(n)
			x.RandNorm(stats.NewRNG(uint64(n)), 0.3)
			r := stats.NewRNG(uint64(n))
			for i, v := range x.Data {
				if w := float32(r.Norm() * 0.3); math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: RandNorm(%d)[%d] = %v, want %v", level, n, i, v, w)
				}
			}
		}
	})
}

// BenchmarkNormFill: the cost of a normal through the fill, at every
// dispatch level this CPU has (the portable level is Norm's cost).
func BenchmarkNormFill(b *testing.B) {
	dst := make([]float64, 4096)
	for _, level := range levelNames {
		restore, ok := SetKernelLevel(level)
		if !ok {
			continue
		}
		b.Run(level, func(b *testing.B) {
			r := stats.NewRNG(1)
			for b.Loop() {
				NormFill(dst, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/normal")
		})
		restore()
	}
}
