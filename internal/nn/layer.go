// Package nn is a from-scratch neural-network substrate: layers with exact
// backpropagation, a sequential model container, optimizers, and the model
// zoo used by the AdaFL experiments (including the paper's 2×conv5×5 CNN).
//
// The federated-learning layer above treats a model as a flat parameter
// vector plus a flat gradient vector; this package provides both views.
// Tensors flow through layers batched: (N, D) for dense data and
// (N, C, H, W) for images.
package nn

import "adafl/internal/tensor"

// Layer is a differentiable network stage.
//
// Forward consumes a batch and returns its activation; train reports
// whether the pass is part of training (layers may cache activations for
// the backward pass only when it is). Backward consumes the gradient of the
// loss with respect to the layer's output and returns the gradient with
// respect to its input, accumulating parameter gradients internally.
type Layer interface {
	// Name identifies the layer in diagnostics.
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable tensors (possibly empty).
	// Callers mutate the returned tensors in place to update weights.
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
}

// sampleCoster is implemented by layers that cost arithmetic or change the
// shape of a sample; Model.FLOPsPerSample walks the model's InputShape
// through them. A layer without it costs nothing and keeps the shape.
type sampleCoster interface {
	// sampleCost returns the multiply-accumulate count of one forward pass
	// over a single sample of shape in (without the batch dimension) and
	// the shape of its output.
	sampleCost(in []int) (flops float64, out []int)
}

// statelessBase provides the empty Params/Grads implementation shared by
// parameter-free layers.
type statelessBase struct{}

func (statelessBase) Params() []*tensor.Tensor { return nil }
func (statelessBase) Grads() []*tensor.Tensor  { return nil }
