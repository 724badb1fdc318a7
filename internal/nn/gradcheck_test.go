package nn

import (
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// numericGradCheck compares the model's backpropagated parameter gradient
// against a central finite difference of the loss, elementwise, on a small
// random batch. It is the ground-truth correctness test for every layer.
//
// The model computes in float32, so the loss it reports carries noise of
// about 1e-7 relative: the step is 1e-3 (not the 1e-5 a float64 model
// affords), the difference quotient divides by the step the float32
// parameter really took, and the tolerances are 1e-4 to 2e-3 (each about
// five times the worst error its model shows).
func numericGradCheck(t *testing.T, m *Model, batch int, seed uint64, tol float64) {
	t.Helper()
	r := stats.NewRNG(seed)
	shape := append([]int{batch}, m.InputShape...)
	x := tensor.New(shape...)
	x.RandNorm(r, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(m.Classes)
	}

	m.ZeroGrads()
	m.TrainBatch(x, labels)
	analytic := m.GradVector()

	params := m.ParamVector()
	// lossAt loads params with params[i] = v and returns the loss and the
	// float32 value the parameter took.
	lossAt := func(i int, v float64) (float64, float64) {
		params[i] = v
		m.SetParamVector(params)
		logits := m.Forward(x, false)
		return crossEntropyLoss(logits, labels), float64(float32(v))
	}
	const eps = 1e-3
	// Check a deterministic subsample of parameters to keep runtime sane.
	stride := len(params)/60 + 1
	checked := 0
	for i := 0; i < len(params); i += stride {
		orig := params[i]
		lp, xp := lossAt(i, orig+eps)
		lm, xm := lossAt(i, orig-eps)
		params[i] = orig
		m.SetParamVector(params)

		numeric := (lp - lm) / (xp - xm)
		diff := math.Abs(numeric - analytic[i])
		scale := math.Max(1, math.Abs(numeric)+math.Abs(analytic[i]))
		if diff/scale > tol {
			t.Fatalf("grad mismatch at param %d: analytic=%.8f numeric=%.8f", i, analytic[i], numeric)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

func TestGradCheckLogistic(t *testing.T) {
	r := stats.NewRNG(1)
	numericGradCheck(t, NewModel([]int{6}, 3, NewDense(6, 3, r)), 4, 2, 1e-4)
}

func TestGradCheckMLP(t *testing.T) {
	r := stats.NewRNG(3)
	numericGradCheck(t, NewModel([]int{8}, 5, NewDense(8, 12, r), NewReLU(), NewDense(12, 5, r)), 4, 4, 2e-4)
}

func TestGradCheckDeepMLP(t *testing.T) {
	r := stats.NewRNG(5)
	m := NewModel([]int{6}, 4,
		NewDense(6, 10, r), NewReLU(),
		NewDense(10, 8, r), NewReLU(),
		NewDense(8, 4, r),
	)
	numericGradCheck(t, m, 3, 6, 2e-4)
}

func TestGradCheckConvModel(t *testing.T) {
	r := stats.NewRNG(7)
	m := NewModel([]int{1, 8, 8}, 3,
		NewConv2D(1, 4, 3, 1, r),
		NewMaxPool2D(),
		NewReLU(),
		NewFlatten(),
		NewDense(4*4*4, 3, r),
	)
	numericGradCheck(t, m, 2, 8, 1e-3)
}

func TestGradCheckConvNoPad(t *testing.T) {
	r := stats.NewRNG(9)
	m := NewModel([]int{2, 6, 6}, 2,
		NewConv2D(2, 3, 3, 0, r), // -> 3×4×4
		NewMaxPool2D(),
		NewReLU(),
		NewFlatten(),
		NewDense(3*2*2, 2, r),
	)
	numericGradCheck(t, m, 2, 10, 1e-3)
}

func TestGradCheckResidualBlock(t *testing.T) {
	r := stats.NewRNG(13)
	m := NewModel([]int{2, 4, 4}, 2,
		NewConv2D(1, 2, 1, 0, r), // cheap channel lift done outside; keep block input 2ch
		NewResidualBlock(2, r),
		NewFlatten(),
		NewDense(2*4*4, 2, r),
	)
	// Fix the input channel mismatch: use 1-channel input lifted to 2.
	m.InputShape = []int{1, 4, 4}
	numericGradCheck(t, m, 2, 14, 2e-4)
}

func TestGradCheckPaperCNNTopologyMini(t *testing.T) {
	// A shrunken version of the paper CNN's exact topology (two valid
	// 5×5 convs + pools + dense) to keep the finite-difference check fast.
	r := stats.NewRNG(15)
	m := NewModel([]int{1, 16, 16}, 4,
		NewConv2D(1, 3, 5, 0, r), // -> 3×12×12
		NewMaxPool2D(),           // -> 3×6×6
		NewReLU(),
		NewConv2D(3, 4, 3, 0, r), // -> 4×4×4
		NewMaxPool2D(),           // -> 4×2×2
		NewReLU(),
		NewFlatten(),
		NewDense(16, 8, r),
		NewReLU(),
		NewDense(8, 4, r),
	)
	numericGradCheck(t, m, 2, 16, 2e-3)
}
