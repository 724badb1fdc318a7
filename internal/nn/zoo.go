package nn

import (
	"fmt"

	"adafl/internal/stats"
)

// The model zoo. Each constructor takes an RNG so that federated clients
// and the server can build byte-identical initial models from a shared
// seed.

// NewPaperCNN builds the exact CNN the paper evaluates on MNIST
// (Wang et al. [27]): two 5×5 convolutions with 20 and 50 output channels,
// each followed by 2×2 max pooling, then a 500-unit dense layer and the
// classifier head. On 28×28×1 input it has ~431k parameters, matching the
// paper's 1.64 MB float32 gradient size.
func NewPaperCNN(r *stats.RNG) *Model {
	return NewModel([]int{1, 28, 28}, 10,
		NewConv2D(1, 20, 5, 0, r), // -> 20×24×24
		NewMaxPool2D(2),           // -> 20×12×12
		NewReLU(),
		NewConv2D(20, 50, 5, 0, r), // -> 50×8×8
		NewMaxPool2D(2),            // -> 50×4×4
		NewReLU(),
		NewFlatten(), // -> 800
		NewDense(800, 500, r),
		NewReLU(),
		NewDense(500, 10, r),
	)
}

// NewImageMLP builds a Flatten + MLP stack over image-shaped input, the
// cheap model used wherever experiments need many repetitions (the conv
// models dominate runtime otherwise). hidden lists the hidden widths.
func NewImageMLP(inputShape []int, hidden []int, classes int, r *stats.RNG) *Model {
	in := 1
	for _, d := range inputShape {
		in *= d
	}
	layers := []Layer{NewFlatten()}
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, r), NewReLU())
		prev = h
	}
	layers = append(layers, NewDense(prev, classes, r))
	return NewModel(inputShape, classes, layers...)
}

// NewVGGLite builds a VGG-style network (stacked 3×3 conv pairs with
// pooling) over size×size×inC input, standing in for the paper's VGG-Net
// on CIFAR-100. size must be divisible by 4.
func NewVGGLite(inC, size, classes int, r *stats.RNG) *Model {
	if size%4 != 0 {
		panic(fmt.Sprintf("nn: VGGLite size %d not divisible by 4", size))
	}
	q := size / 4
	return NewModel([]int{inC, size, size}, classes,
		NewConv2D(inC, 16, 3, 1, r),
		NewReLU(),
		NewConv2D(16, 16, 3, 1, r),
		NewReLU(),
		NewMaxPool2D(2),
		NewConv2D(16, 32, 3, 1, r),
		NewReLU(),
		NewConv2D(32, 32, 3, 1, r),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(32*q*q, 128, r),
		NewReLU(),
		NewDense(128, classes, r),
	)
}

// NewResNetLite builds a small residual network over size×size×inC input,
// standing in for the paper's ResNet-50 on CIFAR-10. size must be divisible
// by 4.
func NewResNetLite(inC, size, classes int, r *stats.RNG) *Model {
	if size%4 != 0 {
		panic(fmt.Sprintf("nn: ResNetLite size %d not divisible by 4", size))
	}
	q := size / 4
	return NewModel([]int{inC, size, size}, classes,
		NewConv2D(inC, 16, 3, 1, r),
		NewReLU(),
		NewResidualBlock(16, r),
		NewMaxPool2D(2),
		NewResidualBlock(16, r),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(16*q*q, classes, r),
	)
}
