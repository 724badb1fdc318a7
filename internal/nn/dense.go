package nn

import (
	"fmt"
	"math"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Dense is a fully-connected layer computing y = xW + b for batched input
// x of shape (N, In).
type Dense struct {
	In, Out int

	W *tensor.Tensor // (In, Out)
	B *tensor.Tensor // (Out)

	GradW *tensor.Tensor
	GradB *tensor.Tensor

	x *tensor.Tensor // cached input for backward

	// Train-mode output and input-gradient buffers, recycled across steps
	// (see ensureTensor); eval forwards allocate fresh so they stay safe
	// under EvaluateBatched's concurrency.
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewDense constructs a dense layer with He-initialised weights drawn from
// r and zero biases.
func NewDense(in, out int, r *stats.RNG) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:     tensor.New(in, out),
		B:     tensor.New(out),
		GradW: tensor.New(in, out),
		GradB: tensor.New(out),
	}
	d.W.RandNorm(r, math.Sqrt(2/float64(in)))
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: dense forward shape %v, want (N, %d)", x.Shape(), d.In))
	}
	var y *tensor.Tensor
	if train {
		d.x = x
		d.y = ensureTensor(d.y, n, d.Out)
		y = d.y
	} else {
		y = tensor.New(n, d.Out)
	}
	tensor.MatMulInto(y, x, d.W)
	tensor.AddRows(y.Data, d.Out, d.B.Data, 0, n, d.Out) // each row += b
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(gradOut)
	d.dx = ensureTensor(d.dx, gradOut.Dim(0), d.In)
	tensor.MatMulTransposeB(d.dx, gradOut, d.W) // dx = gradOut Wᵀ
	return d.dx
}

// backwardParams implements paramsOnlyBackward: dW += xᵀ gradOut and
// db += column sums, without the input gradient.
func (d *Dense) backwardParams(gradOut *tensor.Tensor) {
	if d.x == nil {
		panic("nn: dense backward before forward")
	}
	tensor.MatMulTransposeA(d.GradW, d.x, gradOut)
	// GradB += each row of gradOut in turn: a stride-0 destination.
	tensor.AddRows(d.GradB.Data, 0, gradOut.Data, d.Out, gradOut.Dim(0), d.Out)
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.GradW, d.GradB} }

// sampleCost implements sampleCoster.
func (d *Dense) sampleCost([]int) (float64, []int) {
	return float64(d.In) * float64(d.Out), []int{d.Out}
}
