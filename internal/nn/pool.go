package nn

import (
	"fmt"

	"adafl/internal/tensor"
)

// MaxPool2D downsamples each channel plane by taking the maximum over
// non-overlapping 2×2 windows (stride 2), the pooling of every model in the
// zoo. Input height and width must be even.
type MaxPool2D struct {
	statelessBase

	argmax  []int // flat input index of each output's max, for backward
	inShape []int

	// Train-mode buffers recycled across steps (see ensureTensor).
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewMaxPool2D returns a 2×2 pooling layer.
func NewMaxPool2D() *MaxPool2D { return &MaxPool2D{} }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return "maxpool2x2" }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: maxpool forward shape %v, want rank 4", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: maxpool input %dx%d not divisible by 2", h, w))
	}
	oh, ow := h/2, w/2
	var y *tensor.Tensor
	var argmax []int
	if train {
		p.y = ensureTensor(p.y, n, c, oh, ow)
		y = p.y
		if cap(p.argmax) < n*c*oh*ow {
			p.argmax = make([]int, n*c*oh*ow)
		}
		argmax = p.argmax[:n*c*oh*ow]
	} else {
		y = tensor.New(n, c, oh, ow)
	}
	for nc := 0; nc < n*c; nc++ {
		var am []int
		if argmax != nil {
			am = argmax[nc*oh*ow : (nc+1)*oh*ow]
		}
		tensor.MaxPool2x2(y.Data[nc*oh*ow:(nc+1)*oh*ow], x.Data[nc*h*w:(nc+1)*h*w], w, am, nc*h*w)
	}
	if train {
		p.argmax = argmax
		p.inShape = append(p.inShape[:0], n, c, h, w)
	}
	return y
}

// sampleCost implements sampleCoster over a (C, H, W) sample.
func (p *MaxPool2D) sampleCost(in []int) (float64, []int) {
	return 0, []int{in[0], in[1] / 2, in[2] / 2}
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: maxpool backward before forward")
	}
	p.dx = ensureTensor(p.dx, p.inShape...)
	dx := p.dx
	dx.Zero() // gradients scatter with +=
	for i, g := range gradOut.Data {
		dx.Data[p.argmax[i]] += g
	}
	return dx
}

// Flatten reshapes (N, ...) input into (N, D) for the dense head.
type Flatten struct {
	statelessBase
	inShape []int
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	if train {
		f.inShape = append(f.inShape[:0], x.Shape()...)
	}
	return x.Reshape(n, x.Size()/n)
}

// sampleCost implements sampleCoster.
func (f *Flatten) sampleCost(in []int) (float64, []int) {
	n := 1
	for _, d := range in {
		n *= d
	}
	return 0, []int{n}
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}
