package tensor

// Assembly bindings for the AVX2 elementwise kernels in elem_amd64.s. Each
// takes n > 0, a multiple of 8, and pointers to n elements (4·n bytes for
// the byte forms).

//go:noescape
func sgdMomentumAVX2(p, v, grad *float32, n int, lr, mom float32)

//go:noescape
func reluAVX2(dst, src *float32, n int)

//go:noescape
func reluBackwardAVX2(dx, y, grad *float32, n int)

//go:noescape
func narrowAVX2(dst *float32, src *float64, n int)

//go:noescape
func widenAVX2(dst *float64, src *float32, n int)

//go:noescape
func subNarrowedAVX2(dst *float64, p *float32, start *float64, n int)

//go:noescape
func narrowBytesAVX2(dst *byte, src *float64, n int)

//go:noescape
func widenBytesAVX2(dst *float64, src *byte, n int)
