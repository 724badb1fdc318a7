package nn

import "adafl/internal/tensor"

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	statelessBase
	mask []bool

	// Train-mode buffers recycled across steps (see ensureTensor).
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewReLU returns a rectified-linear activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		y := x.Clone()
		for i, v := range y.Data {
			if v <= 0 {
				y.Data[i] = 0
			}
		}
		return y
	}
	r.y = ensureTensor(r.y, x.Shape()...)
	y := r.y
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	mask := r.mask[:len(y.Data)]
	for i, v := range x.Data {
		if v <= 0 {
			y.Data[i] = 0
			mask[i] = false
		} else {
			y.Data[i] = v
			mask[i] = true
		}
	}
	r.mask = mask
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: relu backward before forward")
	}
	r.dx = ensureTensor(r.dx, gradOut.Shape()...)
	dx := r.dx
	for i, g := range gradOut.Data {
		if r.mask[i] {
			dx.Data[i] = g
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}
