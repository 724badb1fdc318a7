package nn

import "adafl/internal/tensor"

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	statelessBase

	// Train-mode buffers recycled across steps (see ensureTensor). The
	// backward pass reads the output: y ≤ 0 exactly where the input was.
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewReLU returns a rectified-linear activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	var y *tensor.Tensor
	if train {
		r.y = ensureTensor(r.y, x.Shape()...)
		y = r.y
	} else {
		y = tensor.FromSlice(make([]float32, len(x.Data)), x.Shape()...)
	}
	tensor.ReLU(y.Data, x.Data)
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.y == nil {
		panic("nn: relu backward before forward")
	}
	r.dx = ensureTensor(r.dx, gradOut.Shape()...)
	tensor.ReLUBackward(r.dx.Data, r.y.Data, gradOut.Data)
	return r.dx
}
