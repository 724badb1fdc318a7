package nn

import (
	"fmt"
	"math"
	"testing"
	"time"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// trainBatchInput returns a deterministic batch for m.
func trainBatchInput(m *Model, batch int, seed uint64) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{batch}, m.InputShape...)...)
	x.RandNorm(stats.NewRNG(seed), 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % m.Classes
	}
	return x, labels
}

func assertBitEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: got %v want %v", label, i, got[i], want[i])
		}
	}
}

// TestSGDStepMatchesFlatVectorFormula pins the in-place Step bit for bit to
// the flat-vector update it replaced (g += wd·p; v = m·v + g; p -= lr·v over
// GradVector/ParamVector copies), evaluated in float32 like the tensors it
// updates, across steps so the momentum state counts.
func TestSGDStepMatchesFlatVectorFormula(t *testing.T) {
	models := map[string]func() *Model{
		"PaperCNN": func() *Model { return NewPaperCNN(stats.NewRNG(11)) },
		"ImageMLP": func() *Model { return NewImageMLP([]int{1, 16, 16}, []int{32}, 10, stats.NewRNG(12)) },
	}
	for name, build := range models {
		for _, hp := range []struct{ lr, momentum, wd float64 }{{0.05, 0.9, 1e-3}, {0.05, 0, 1e-3}, {0.05, 0.9, 0}} {
			m := build()
			x, labels := trainBatchInput(m, 4, 13)
			opt := NewSGD(hp.lr, hp.momentum, hp.wd)
			lr, mom, wd := float32(hp.lr), float32(hp.momentum), float32(hp.wd)
			var velocity []float32
			for step := 0; step < 3; step++ {
				m.ZeroGrads()
				m.TrainBatch(x, labels)
				grad, want := m.GradVector(), m.ParamVector()
				if mom != 0 && velocity == nil {
					velocity = make([]float32, len(grad))
				}
				for i := range grad {
					g, p := float32(grad[i]), float32(want[i])
					if wd != 0 {
						g += wd * p
					}
					if mom != 0 {
						velocity[i] = mom*velocity[i] + g
						p -= lr * velocity[i]
					} else {
						p -= lr * g
					}
					want[i] = float64(p)
				}
				opt.Step(m)
				assertBitEqual(t, m.ParamVector(), want, fmt.Sprintf("%s %+v step %d", name, hp, step))
			}
			// In place means no flat copy of the model: all a step may
			// allocate is the small slice each Params()/Grads() call returns.
			trainable := 0
			for _, l := range m.Layers {
				if len(l.Params()) > 0 {
					trainable++
				}
			}
			if allocs := testing.AllocsPerRun(3, func() { opt.Step(m) }); allocs > float64(2*trainable) {
				t.Errorf("%s %+v: Step makes %v allocations, want at most %d", name, hp, allocs, 2*trainable)
			}
		}
	}
}

// TestBackwardSkippingInputGradientKeepsParamGrads checks that stopping the
// backward pass at the first trainable layer, without its input gradient,
// leaves every parameter gradient bit-identical to the full layer-by-layer
// backward.
func TestBackwardSkippingInputGradientKeepsParamGrads(t *testing.T) {
	models := map[string]func() *Model{
		"PaperCNN":   func() *Model { return NewPaperCNN(stats.NewRNG(21)) },
		"VGGLite":    func() *Model { return NewVGGLite(3, 8, 4, stats.NewRNG(22)) },
		"ResNetLite": func() *Model { return NewResNetLite(3, 8, 4, stats.NewRNG(23)) },
		"ImageMLP":   func() *Model { return NewImageMLP([]int{1, 6, 6}, []int{16}, 4, stats.NewRNG(24)) },
	}
	for name, build := range models {
		fast, full := build(), build()
		x, labels := trainBatchInput(fast, 3, 25)
		for step := 0; step < 2; step++ { // the second pass reuses every buffer
			fast.ZeroGrads()
			fast.TrainBatch(x, labels)

			full.ZeroGrads()
			logits := full.Forward(x, true)
			_, grad := softmaxCrossEntropy(logits, labels)
			for i := len(full.Layers) - 1; i >= 0; i-- {
				grad = full.Layers[i].Backward(grad)
			}
			if grad == nil {
				t.Fatalf("%s: full backward returned no input gradient", name)
			}
			assertBitEqual(t, fast.GradVector(), full.GradVector(), fmt.Sprintf("%s pass %d", name, step))
		}
		// The fast pass really skipped the work: the first trainable layer
		// never materialised an input-gradient buffer.
		for _, l := range fast.Layers {
			if len(l.Params()) == 0 {
				continue
			}
			switch l := l.(type) {
			case *Conv2D:
				if l.dx != nil || l.dcols != nil {
					t.Errorf("%s: first conv layer computed an input gradient", name)
				}
			case *Dense:
				if l.dx != nil {
					t.Errorf("%s: first dense layer computed an input gradient", name)
				}
			}
			break
		}
	}
}

// TestSGDStepSubnormalVelocityStaysCheap: once a velocity has decayed into
// the subnormal range (zero gradient for thousands of steps) the steps
// that follow must not be slow — left there, every element takes a
// microcode assist on every step, ~100× the normal cost, for the ≈ 220
// more steps it takes to reach zero — and flushing it must leave the
// parameters alone.
func TestSGDStepSubnormalVelocityStaysCheap(t *testing.T) {
	m := NewImageMLP([]int{1, 28, 28}, []int{128}, 10, stats.NewRNG(31))
	m.ZeroGrads() // every gradient exactly 0, as for a dead ReLU row
	opt := NewSGD(0.05, 0.9, 0)
	opt.Step(m)
	before := m.ParamVector()
	// stepsFrom sets every velocity to v, takes the one step that crosses
	// into the subnormal range untimed, and times the next ones, best of 9.
	stepsFrom := func(v float32) time.Duration {
		for i := range opt.velocity {
			opt.velocity[i] = v
		}
		opt.Step(m)
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 9; rep++ {
			start := time.Now()
			opt.Step(m)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	subnormal := stepsFrom(0x1p-126)
	for i, v := range opt.velocity {
		if v != 0 {
			t.Fatalf("velocity[%d] = %g after steps from a velocity gone subnormal, want it flushed to 0", i, v)
		}
	}
	assertBitEqual(t, m.ParamVector(), before, "parameters after steps on subnormal velocity")
	normal := stepsFrom(1)
	if subnormal > 3*normal {
		t.Errorf("Step after the velocity went subnormal took %v, on a normal velocity %v: want at most 3×", subnormal, normal)
	}
}

// TestSGDVelocityDecaysToZeroNeverSubnormal: with the gradient held at 0, a
// float32 velocity at m = 0.9 decays from 1 to exactly 0 — in the ≈ 830
// steps it takes to leave the normal range — and no step leaves a
// subnormal behind.
func TestSGDVelocityDecaysToZeroNeverSubnormal(t *testing.T) {
	m := NewImageMLP([]int{1, 4, 4}, []int{8}, 3, stats.NewRNG(41))
	m.ZeroGrads()
	opt := NewSGD(0.05, 0.9, 0)
	opt.Step(m)
	for i := range opt.velocity {
		opt.velocity[i] = 1 - float32(i)*0x1p-10 // distinct, so every step of the decay is taken
	}
	for step := 1; ; step++ {
		opt.Step(m)
		zero := true
		for i, v := range opt.velocity {
			if v != 0 && math.Abs(float64(v)) < 0x1p-126 {
				t.Fatalf("step %d: velocity[%d] = %g is subnormal", step, i, v)
			}
			zero = zero && v == 0
		}
		if zero {
			if step < 800 {
				t.Fatalf("velocity reached 0 after %d steps; 0.9ⁿ leaves the float32 normal range only after ≈ 830", step)
			}
			return
		}
		if step > 1000 {
			t.Fatalf("velocity not 0 after %d steps: %g", step, opt.velocity[0])
		}
	}
}

// TestAdamMomentsFlushSubnormal: Adam's two moments decay by β₁ and β₂ on
// every step a coordinate's gradient is 0; started just above the float64
// subnormal range they reach exactly 0 without ever holding a subnormal,
// and the step they give stays finite.
func TestAdamMomentsFlushSubnormal(t *testing.T) {
	a := NewAdam(0.01, 0, 0, 0)
	grad := make([]float64, 4)
	a.DirectionVec(grad)
	for i := range a.mVec {
		a.mVec[i], a.vVec[i] = 0x1p-1020*float64(i+1), 0x1p-1020*float64(i+1)
	}
	for step := 1; ; step++ {
		for i, d := range a.DirectionVec(grad) {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("step %d: direction[%d] = %g", step, i, d)
			}
		}
		zero := true
		for i := range a.mVec {
			for _, v := range []float64{a.mVec[i], a.vVec[i]} {
				if v != 0 && math.Abs(v) < 0x1p-1022 {
					t.Fatalf("step %d: moment %d holds the subnormal %g", step, i, v)
				}
				zero = zero && v == 0
			}
		}
		if zero {
			return
		}
		if step > 5000 {
			t.Fatalf("moments not 0 after %d steps: m %g, v %g", step, a.mVec[3], a.vVec[3])
		}
	}
}
