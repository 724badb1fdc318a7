package nn

import (
	"fmt"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// ResidualBlock computes y = relu(conv2(relu(conv1(x))) + x) with 3×3
// same-padding convolutions, the basic building block of the ResNetLite
// stand-in for the paper's ResNet-50. Channel count is preserved so the
// skip connection is an identity.
type ResidualBlock struct {
	C int

	conv1, conv2 *Conv2D
	relu1, relu2 *ReLU // relu2 over the sum of conv path and skip
}

// NewResidualBlock returns an identity-skip residual block over c channels.
func NewResidualBlock(c int, r *stats.RNG) *ResidualBlock {
	return &ResidualBlock{
		C:     c,
		conv1: NewConv2D(c, c, 3, 1, r),
		conv2: NewConv2D(c, c, 3, 1, r),
		relu1: NewReLU(),
		relu2: NewReLU(),
	}
}

// Name implements Layer.
func (b *ResidualBlock) Name() string { return fmt.Sprintf("resblock(%dch)", b.C) }

// Forward implements Layer. The skip is added into conv2's output, which
// that layer's backward pass does not read.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := b.conv1.Forward(x, train)
	h = b.relu1.Forward(h, train)
	h = b.conv2.Forward(h, train)
	h.AddInPlace(x)
	return b.relu2.Forward(h, train)
}

// Backward implements Layer.
func (b *ResidualBlock) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := b.relu2.Backward(gradOut)
	// g flows both through the conv path and the skip.
	dPath := b.conv2.Backward(g)
	dPath = b.relu1.Backward(dPath)
	dPath = b.conv1.Backward(dPath)
	dPath.AddInPlace(g)
	return dPath
}

// Params implements Layer.
func (b *ResidualBlock) Params() []*tensor.Tensor {
	return append(b.conv1.Params(), b.conv2.Params()...)
}

// bindViews implements viewBinder for the two convolutions' cached views.
func (b *ResidualBlock) bindViews() {
	b.conv1.bindViews()
	b.conv2.bindViews()
}

// Grads implements Layer.
func (b *ResidualBlock) Grads() []*tensor.Tensor {
	return append(b.conv1.Grads(), b.conv2.Grads()...)
}

// sampleCost implements sampleCoster: both convolutions keep the shape.
func (b *ResidualBlock) sampleCost(in []int) (float64, []int) {
	f1, mid := b.conv1.sampleCost(in)
	f2, out := b.conv2.sampleCost(mid)
	return f1 + f2, out
}
