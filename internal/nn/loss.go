package nn

import (
	"fmt"
	"math"

	"adafl/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (N, K) against integer labels, along with the gradient of the loss with
// respect to the logits. The softmax and loss are fused for numerical
// stability (log-sum-exp with max subtraction).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: logits shape %v, want (N, K)", logits.Shape()))
	}
	grad = tensor.New(logits.Dim(0), logits.Dim(1))
	loss = SoftmaxCrossEntropyInto(grad, logits, labels)
	return loss, grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the logit gradient
// into a caller-provided (N, K) tensor, so training loops can reuse one
// gradient buffer across steps. Every element of grad is overwritten.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (loss float64) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: logits shape %v, want (N, K)", logits.Shape()))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	if grad.Rank() != 2 || grad.Dim(0) != n || grad.Dim(1) != k {
		panic(fmt.Sprintf("nn: loss grad shape %v, want %v", grad.Shape(), logits.Shape()))
	}
	total := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		gRow := grad.Data[i*k : (i+1)*k]
		lbl := labels[i]
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, k))
		}
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logSum := math.Log(sum) + maxv
		total += logSum - row[lbl]
		inv := 1 / (sum * float64(n))
		for j, v := range row {
			gRow[j] = math.Exp(v-maxv) * inv
		}
		gRow[lbl] -= 1 / float64(n)
	}
	return total / float64(n)
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
