package nn

import (
	"fmt"
	"math"

	"adafl/internal/tensor"
)

// SoftmaxCrossEntropyInto computes the mean cross-entropy loss of logits
// (N, K) against integer labels and writes the gradient of the loss with
// respect to the logits into a caller-provided (N, K) tensor, so training
// loops can reuse one gradient buffer across steps. Every element of grad
// is overwritten. The softmax and loss are fused for numerical stability
// (log-sum-exp with max subtraction), and each logit's exp is taken once:
// the loss's denominator and the gradient's numerator are the same value.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (loss float64) {
	n, k := checkLossShapes(logits, labels)
	if grad.Rank() != 2 || grad.Dim(0) != n || grad.Dim(1) != k {
		panic(fmt.Sprintf("nn: loss grad shape %v, want %v", grad.Shape(), logits.Shape()))
	}
	// The exps of one row, in float64: a class count within the array
	// keeps them on the stack, so a training step allocates nothing here.
	var stack [64]float64
	exps := stack[:]
	if k > len(stack) {
		exps = make([]float64, k)
	}
	exps = exps[:k]
	total := 0.0
	for i := 0; i < n; i++ {
		lbl := labels[i]
		term, sum := crossEntropyRow(logits.Data[i*k:(i+1)*k], lbl, exps)
		total += term
		// The loss is a float64 sum; only the gradient goes back to float32.
		inv := 1 / (sum * float64(n))
		gRow := grad.Data[i*k : (i+1)*k]
		for j, e := range exps {
			gRow[j] = float32(e * inv)
		}
		gRow[lbl] = float32(exps[lbl]*inv - 1/float64(n))
	}
	return total / float64(n)
}

// crossEntropyLoss is SoftmaxCrossEntropyInto's loss without the gradient,
// for evaluation: the same rows summed in the same order, so the same bits.
func crossEntropyLoss(logits *tensor.Tensor, labels []int) float64 {
	n, k := checkLossShapes(logits, labels)
	total := 0.0
	for i := 0; i < n; i++ {
		term, _ := crossEntropyRow(logits.Data[i*k:(i+1)*k], labels[i], nil)
		total += term
	}
	return total / float64(n)
}

// checkLossShapes panics unless logits is (N, K) with one in-range label
// per row, and returns N and K.
func checkLossShapes(logits *tensor.Tensor, labels []int) (n, k int) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: logits shape %v, want (N, K)", logits.Shape()))
	}
	n, k = logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	for _, lbl := range labels {
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, k))
		}
	}
	return n, k
}

// crossEntropyRow returns one row's cross-entropy term log Σ_j e^row[j] −
// row[lbl], computed as m + log Σ_j e^(row[j]−m) with m the row maximum,
// and the sum Σ_j e^(row[j]−m). exps, when non-nil, receives each
// e^(row[j]−m).
func crossEntropyRow(row []float32, lbl int, exps []float64) (term, sum float64) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	m := float64(maxv)
	for j, v := range row {
		e := math.Exp(float64(v) - m)
		if exps != nil {
			exps[j] = e
		}
		sum += e
	}
	logSum := math.Log(sum) + m
	return logSum - float64(row[lbl]), sum
}

// Predict returns the argmax class of each row of logits.
func Predict(logits *tensor.Tensor) []int {
	n, k := logits.Dim(0), logits.Dim(1)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
