package compress

import (
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

func TestTernGradValuesAreTernary(t *testing.T) {
	tg := NewTernGrad(stats.NewRNG(1))
	g := []float64{0.5, -1.5, 0.2, 1.5, 0}
	msg := tg.Encode(g, 0)
	s := 1.5
	for i, v := range msg.Values {
		if v != 0 && v != s && v != -s {
			t.Fatalf("value[%d] = %v not in {0, ±%v}", i, v, s)
		}
	}
}

func TestTernGradUnbiased(t *testing.T) {
	tg := NewTernGrad(stats.NewRNG(2))
	g := []float64{0.3, -0.7, 1.0, 0.1}
	sum := make([]float64, len(g))
	n := 30000
	for i := 0; i < n; i++ {
		msg := tg.Encode(g, 0)
		tensor.Axpy(1, msg.Dense(), sum)
	}
	for i := range g {
		mean := sum[i] / float64(n)
		if math.Abs(mean-g[i]) > 0.03 {
			t.Fatalf("biased at %d: mean %v, want %v", i, mean, g[i])
		}
	}
}

func TestTernGradWireBytes(t *testing.T) {
	tg := NewTernGrad(stats.NewRNG(3))
	g := make([]float64, 1600)
	for i := range g {
		g[i] = float64(i%5) - 2
	}
	msg := tg.Encode(g, 0)
	// header + scale + 2 bits/coord = 8 + 4 + 400.
	if msg.WireBytes() != 8+4+400 {
		t.Fatalf("wire bytes %d", msg.WireBytes())
	}
	if msg.CompressionRatio() < 10 {
		t.Fatalf("ratio %v, want ~15x", msg.CompressionRatio())
	}
}

func TestTernGradZeroGradient(t *testing.T) {
	tg := NewTernGrad(stats.NewRNG(4))
	msg := tg.Encode(make([]float64, 8), 0)
	for _, v := range msg.Values {
		if v != 0 {
			t.Fatal("zero gradient produced nonzero output")
		}
	}
}

func TestRandomKCount(t *testing.T) {
	rk := NewRandomK(stats.NewRNG(5))
	g := make([]float64, 1000)
	for i := range g {
		g[i] = 1
	}
	msg := rk.Encode(g, 20)
	want := KForRatio(1000, 20)
	if msg.NNZ() != want {
		t.Fatalf("NNZ %d, want %d", msg.NNZ(), want)
	}
}

func TestRandomKUnbiasedScaling(t *testing.T) {
	rk := NewRandomK(stats.NewRNG(6))
	g := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	sum := make([]float64, len(g))
	n := 40000
	for i := 0; i < n; i++ {
		msg := rk.Encode(g, 4)
		tensor.Axpy(1, msg.Dense(), sum)
	}
	for i := range g {
		mean := sum[i] / float64(n)
		if math.Abs(mean-g[i]) > 0.15 {
			t.Fatalf("biased at %d: mean %v, want %v", i, mean, g[i])
		}
	}
}

func TestRandomKIndicesSortedUnique(t *testing.T) {
	rk := NewRandomK(stats.NewRNG(7))
	g := make([]float64, 200)
	msg := rk.Encode(g, 10)
	seen := map[int32]bool{}
	prev := int32(-1)
	for _, idx := range msg.Indices {
		if idx <= prev {
			t.Fatal("indices not strictly increasing")
		}
		if seen[idx] {
			t.Fatal("duplicate index")
		}
		seen[idx] = true
		prev = idx
	}
}

func TestErrorNormOrdering(t *testing.T) {
	// On a heavy-tailed gradient, top-k must beat random-k at the same
	// budget, and identity must be exact to float32 precision.
	r := stats.NewRNG(8)
	g := make([]float64, 2000)
	for i := range g {
		g[i] = r.Norm()
		if i%50 == 0 {
			g[i] *= 20 // heavy tail
		}
	}
	idErr := ErrorNorm(Identity{}, g, 10)
	topErr := ErrorNorm(&TopK{}, g, 10)
	rkErr := ErrorNorm(&RandomK{rng: stats.NewRNG(9), Scale: false}, g, 10)
	// Identity transmits float32s: each coordinate is off by at most half
	// a float32 ulp, 2^-24 relative, and so is the whole vector.
	if idErr > 1.0/(1<<24) {
		t.Fatalf("identity error %v", idErr)
	}
	if !(topErr < rkErr) {
		t.Fatalf("top-k error %v not below random-k %v", topErr, rkErr)
	}
}
