package tensor

// Assembly bindings for the AVX2 elementwise kernels in elem_amd64.s. Each
// elementwise kernel takes n > 0, a multiple of 8, and pointers to n
// elements; the row, bias, tap and pool kernels take the shapes their callers
// in elem.go have checked.

//go:noescape
func sgdMomentumAVX2(p, v, grad *float32, n int, lr, mom float32)

//go:noescape
func reluAVX2(dst, src *float32, n int)

//go:noescape
func reluBackwardAVX2(dx, y, grad *float32, n int)

//go:noescape
func subWidenAVX2(dst *float64, p, start *float32, n int)

// addRowsAVX2 takes rows > 0, width > 0 and strides in elements.
//
//go:noescape
func addRowsAVX2(dst *float32, dstStride int, src *float32, srcStride, rows, width int)

// addBiasAVX2 takes channels > 0 planes of plane > 0 elements.
//
//go:noescape
func addBiasAVX2(dst, b *float32, channels, plane int)

// tapsAVX2 takes positive rows, taps and channels and the spans taps has
// checked.
//
//go:noescape
func tapsAVX2(patch, image *float32, geo *Taps, add bool)

// maxPool2x2AVX2 takes rows > 0 window rows of a plane whose w is a
// multiple of 8 and has fewer than 2³¹ elements; argmax may be nil.
//
//go:noescape
func maxPool2x2AVX2(out, in *float32, argmax *int, rows, w, inOff int)
