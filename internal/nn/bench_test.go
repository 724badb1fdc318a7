package nn

import (
	"fmt"
	"testing"

	"adafl/internal/dataset"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// BenchmarkConvForwardBackward measures one train-mode forward+backward
// through the paper CNN's two convolution layers on a batch of 8 — the
// GEMM-dominated core of every simulated client step.
func BenchmarkConvForwardBackward(b *testing.B) {
	r := stats.NewRNG(1)
	conv1 := NewConv2D(1, 20, 5, 0, r)  // 28×28 -> 24×24
	conv2 := NewConv2D(20, 50, 5, 0, r) // 24×24 -> 20×20 (no pool, pure conv cost)
	x := tensor.New(8, 1, 28, 28)
	x.RandNorm(stats.NewRNG(2), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := conv1.Forward(x, true)
		y := conv2.Forward(h, true)
		g := conv2.Backward(y)
		conv1.Backward(g)
	}
}

// BenchmarkConvForwardEval measures an eval-mode forward (the path
// model evaluation fans out across goroutines), tracking the scratch
// allocations the shared buffer pool is meant to remove.
func BenchmarkConvForwardEval(b *testing.B) {
	r := stats.NewRNG(3)
	conv := NewConv2D(1, 20, 5, 0, r)
	x := tensor.New(8, 1, 28, 28)
	x.RandNorm(stats.NewRNG(4), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// BenchmarkDenseForwardBackward measures the dense head at paper shape.
func BenchmarkDenseForwardBackward(b *testing.B) {
	r := stats.NewRNG(5)
	d := NewDense(800, 500, r)
	x := tensor.New(8, 800)
	x.RandNorm(stats.NewRNG(6), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := d.Forward(x, true)
		d.Backward(y)
	}
}

// BenchmarkSGDStep431k measures one momentum step of the paper CNN: every
// parameter, its gradient and its velocity, elementwise.
func BenchmarkSGDStep431k(b *testing.B) {
	m := NewPaperCNN(stats.NewRNG(7))
	r := stats.NewRNG(8)
	for _, l := range m.Layers {
		for _, g := range l.Grads() {
			g.RandNorm(r, 1e-2)
		}
	}
	opt := NewSGD(0.05, 0.9, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(m)
	}
}

// BenchmarkParamMoves431k measures the float64↔float32 boundary of one
// client round on the paper CNN: loading the global (SetParamVector) and
// taking the delta from it (ParamDelta).
func BenchmarkParamMoves431k(b *testing.B) {
	m := NewPaperCNN(stats.NewRNG(9))
	global := m.ParamVector()
	delta := make([]float64, len(global))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetParamVector(global)
		m.ParamDelta(delta, global)
	}
}

// BenchmarkReLU measures a train-mode ReLU forward and backward over the
// paper CNN's largest activation at batch 16 (20×12×12 after the first
// pooling).
func BenchmarkReLU(b *testing.B) {
	x, g := tensor.New(16, 20, 12, 12), tensor.New(16, 20, 12, 12)
	x.RandNorm(stats.NewRNG(10), 1)
	g.RandNorm(stats.NewRNG(11), 1)
	relu := NewReLU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relu.Forward(x, true)
		relu.Backward(g)
	}
}

// BenchmarkConvPaperCNNTrainBatch measures one client step of the paper
// CNN at batch 16 — zero the gradients, forward, backward, SGD momentum —
// the unit `cnn_train` repeats; run it with -cpu 1 to read one core.
func BenchmarkConvPaperCNNTrainBatch(b *testing.B) {
	m := NewPaperCNN(stats.NewRNG(12))
	ds := dataset.SynthMNIST(16, 28, 13)
	opt := NewSGD(0.05, 0.9, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		m.TrainBatch(ds.X, ds.Labels)
		opt.Step(m)
	}
}

// BenchmarkConvLowering measures the paper CNN's conv2 lowering at batch
// 16: one im2col and one col2im per sample, 4 000 taps of eight floats
// each way.
func BenchmarkConvLowering(b *testing.B) {
	conv := NewConv2D(20, 50, 5, 0, stats.NewRNG(14))
	x := tensor.New(16, 20, 12, 12)
	x.RandNorm(stats.NewRNG(15), 1)
	cols := make([]float32, 20*5*5*8*8)
	dx := make([]float32, 20*12*12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 16; n++ {
			conv.im2col(cols, x.Data[n*20*12*12:(n+1)*20*12*12], 12, 12, 8, 8)
			conv.col2im(dx, cols, 12, 12, 8, 8)
		}
	}
}

// BenchmarkMaxPool measures a train-mode 2×2 pooling forward over the
// paper CNN's two pooled activations at batch 16: 20×24×24 and 50×8×8.
func BenchmarkMaxPool(b *testing.B) {
	for _, s := range []struct{ c, hw int }{{20, 24}, {50, 8}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.c, s.hw, s.hw), func(b *testing.B) {
			x := tensor.New(16, s.c, s.hw, s.hw)
			x.RandNorm(stats.NewRNG(16), 1)
			p := NewMaxPool2D()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(x, true)
			}
		})
	}
}

// BenchmarkPaperCNNInit: building the paper CNN, 431 080 He-initialised
// parameters drawn through tensor.NormFill, at every dispatch level this
// CPU has. Every client and the server build one per session.
func BenchmarkPaperCNNInit(b *testing.B) {
	for _, level := range []string{"portable", "avx2", "avx512"} {
		restore, ok := tensor.SetKernelLevel(level)
		if !ok {
			continue
		}
		b.Run(level, func(b *testing.B) {
			for b.Loop() {
				NewPaperCNN(stats.NewRNG(1))
			}
		})
		restore()
	}
}
