// Package tensor provides a small dense float64 tensor and the flat-vector
// operations federated learning needs: parameter/gradient arithmetic,
// matrix multiplication for fully-connected layers, and similarity metrics
// for utility scoring.
//
// Tensors are row-major over an explicit shape. The package favours
// in-place operations on pre-allocated buffers because the training loop is
// the hot path of every experiment in this repository.
package tensor

import (
	"fmt"

	"adafl/internal/stats"
)

// Tensor is a dense, row-major multi-dimensional array of float64.
type Tensor struct {
	shape []int
	// Data is the flat backing slice, exposed so hot loops (convolution,
	// codecs) can iterate without bounds-checked accessor calls.
	Data []float64
}

// New allocates a zero-filled tensor with the given shape. A zero-length
// shape yields a scalar tensor holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), Data: make([]float64, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
	if v.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return v
}

// Zero resets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// RandNorm fills the tensor with N(0, stddev^2) samples from r.
func (t *Tensor) RandNorm(r *stats.RNG, stddev float64) {
	for i := range t.Data {
		t.Data[i] = r.Norm() * stddev
	}
}

// AddInPlace accumulates o into t elementwise. Shapes must match in size.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}
