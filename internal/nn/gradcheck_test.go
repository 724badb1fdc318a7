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
	lossAt := func() float64 {
		logits := m.Forward(x, false)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	const eps = 1e-5
	// Check a deterministic subsample of parameters to keep runtime sane.
	stride := len(params)/60 + 1
	checked := 0
	for i := 0; i < len(params); i += stride {
		orig := params[i]
		params[i] = orig + eps
		m.SetParamVector(params)
		lp := lossAt()
		params[i] = orig - eps
		m.SetParamVector(params)
		lm := lossAt()
		params[i] = orig
		m.SetParamVector(params)

		numeric := (lp - lm) / (2 * eps)
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
	numericGradCheck(t, NewModel([]int{6}, 3, NewDense(6, 3, r)), 4, 2, 1e-5)
}

func TestGradCheckMLP(t *testing.T) {
	r := stats.NewRNG(3)
	numericGradCheck(t, NewModel([]int{8}, 5, NewDense(8, 12, r), NewReLU(), NewDense(12, 5, r)), 4, 4, 1e-4)
}

func TestGradCheckDeepMLP(t *testing.T) {
	r := stats.NewRNG(5)
	m := NewModel([]int{6}, 4,
		NewDense(6, 10, r), NewReLU(),
		NewDense(10, 8, r), NewReLU(),
		NewDense(8, 4, r),
	)
	numericGradCheck(t, m, 3, 6, 1e-4)
}

func TestGradCheckConvModel(t *testing.T) {
	r := stats.NewRNG(7)
	m := NewModel([]int{1, 8, 8}, 3,
		NewConv2D(1, 4, 3, 1, r),
		NewMaxPool2D(2),
		NewReLU(),
		NewFlatten(),
		NewDense(4*4*4, 3, r),
	)
	numericGradCheck(t, m, 2, 8, 1e-4)
}

func TestGradCheckConvNoPad(t *testing.T) {
	r := stats.NewRNG(9)
	m := NewModel([]int{2, 6, 6}, 2,
		NewConv2D(2, 3, 3, 0, r), // -> 3×4×4
		NewMaxPool2D(2),
		NewReLU(),
		NewFlatten(),
		NewDense(3*2*2, 2, r),
	)
	numericGradCheck(t, m, 2, 10, 1e-4)
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
	numericGradCheck(t, m, 2, 14, 1e-4)
}

func TestGradCheckPaperCNNTopologyMini(t *testing.T) {
	// A shrunken version of the paper CNN's exact topology (two valid
	// 5×5 convs + pools + dense) to keep the finite-difference check fast.
	r := stats.NewRNG(15)
	m := NewModel([]int{1, 16, 16}, 4,
		NewConv2D(1, 3, 5, 0, r), // -> 3×12×12
		NewMaxPool2D(2),          // -> 3×6×6
		NewReLU(),
		NewConv2D(3, 4, 3, 0, r), // -> 4×4×4
		NewMaxPool2D(2),          // -> 4×2×2
		NewReLU(),
		NewFlatten(),
		NewDense(16, 8, r),
		NewReLU(),
		NewDense(8, 4, r),
	)
	numericGradCheck(t, m, 2, 16, 1e-4)
}
