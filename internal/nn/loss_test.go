package nn

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// softmaxCrossEntropy is SoftmaxCrossEntropyInto into a fresh gradient.
func softmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Dim(0), logits.Dim(1))
	return SoftmaxCrossEntropyInto(grad, logits, labels), grad
}

// twoExpCrossEntropy is the loss as it was written before each exp was
// kept: one exp per logit for the denominator and another for the
// gradient. SoftmaxCrossEntropyInto must match it bit for bit.
func twoExpCrossEntropy(grad, logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	total := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		gRow := grad.Data[i*k : (i+1)*k]
		lbl := labels[i]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		m := float64(maxv)
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(float64(v) - m)
		}
		logSum := math.Log(sum) + m
		total += logSum - float64(row[lbl])
		inv := 1 / (sum * float64(n))
		for j, v := range row {
			gRow[j] = float32(math.Exp(float64(v)-m) * inv)
		}
		gRow[lbl] = float32(math.Exp(float64(row[lbl])-m)*inv - 1/float64(n))
	}
	return total / float64(n)
}

// lossCases are logits of several shapes and scales, the class count on
// both sides of SoftmaxCrossEntropyInto's stack buffer, with ties, huge
// spreads and subnormal logits among them.
func lossCases() map[string]*tensor.Tensor {
	cases := map[string]*tensor.Tensor{
		"ties":      tensor.FromSlice([]float32{1, 1, 1, 1, 0, 0, 0, 0}, 2, 4),
		"huge":      tensor.FromSlice([]float32{1000, 1001, 999, -1e30, 1e30, 0}, 2, 3),
		"subnormal": tensor.FromSlice([]float32{1e-40, -1e-42, 0, float32(math.Copysign(0, -1))}, 1, 4),
		"one class": tensor.FromSlice([]float32{3, -2, 7}, 3, 1),
	}
	r := stats.NewRNG(61)
	for _, nk := range [][2]int{{1, 2}, {16, 10}, {64, 10}, {5, 64}, {5, 65}, {7, 200}} {
		for _, scale := range []float64{0.01, 3, 80} {
			x := tensor.New(nk[0], nk[1])
			x.RandNorm(r, scale)
			cases[fmt.Sprintf("%dx%d σ=%g", nk[0], nk[1], scale)] = x
		}
	}
	return cases
}

func caseLabels(logits *tensor.Tensor, seed uint64) []int {
	r := stats.NewRNG(seed)
	labels := make([]int, logits.Dim(0))
	for i := range labels {
		labels[i] = r.Intn(logits.Dim(1))
	}
	return labels
}

func TestSoftmaxCrossEntropyIntoMatchesTwoExp(t *testing.T) {
	for name, logits := range lossCases() {
		labels := caseLabels(logits, 62)
		n, k := logits.Dim(0), logits.Dim(1)
		got, want := tensor.New(n, k), tensor.New(n, k)
		gl := SoftmaxCrossEntropyInto(got, logits, labels)
		wl := twoExpCrossEntropy(want, logits, labels)
		if math.Float64bits(gl) != math.Float64bits(wl) {
			t.Fatalf("%s: loss %v, two-exp form %v", name, gl, wl)
		}
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: grad[%d] = %v, two-exp form %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestCrossEntropyLossMatchesGradientPath pins the evaluation loss, which
// fills no gradient, to the training loss's bits.
func TestCrossEntropyLossMatchesGradientPath(t *testing.T) {
	for name, logits := range lossCases() {
		labels := caseLabels(logits, 63)
		want, _ := softmaxCrossEntropy(logits, labels)
		if got := crossEntropyLoss(logits, labels); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: loss-only %v, gradient path %v", name, got, want)
		}
	}
}

func TestSoftmaxCrossEntropyIntoAllocatesNothing(t *testing.T) {
	logits := tensor.New(16, 10)
	logits.RandNorm(stats.NewRNG(64), 1)
	labels := caseLabels(logits, 65)
	grad := tensor.New(16, 10)
	if a := testing.AllocsPerRun(10, func() { SoftmaxCrossEntropyInto(grad, logits, labels) }); a != 0 {
		t.Fatalf("%v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { crossEntropyLoss(logits, labels) }); a != 0 {
		t.Fatalf("loss-only: %v allocations per call, want 0", a)
	}
}

func TestSoftmaxCrossEntropyPanicsOnBadLabel(t *testing.T) {
	logits := tensor.New(2, 3)
	for _, labels := range [][]int{{0, 3}, {-1, 0}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("labels %v: no panic", labels)
				}
			}()
			crossEntropyLoss(logits, labels)
		}()
	}
}
