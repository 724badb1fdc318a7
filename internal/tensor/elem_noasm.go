//go:build !amd64

package tensor

// Non-amd64 builds run every elementwise pass as its scalar loop
// (elem.go): simdEnabled is false, so none of these is reached.

func sgdMomentumAVX2(p, v, grad *float32, n int, lr, mom float32) { noSIMD() }

func reluAVX2(dst, src *float32, n int) { noSIMD() }

func reluBackwardAVX2(dx, y, grad *float32, n int) { noSIMD() }

func narrowAVX2(dst *float32, src *float64, n int) { noSIMD() }

func widenAVX2(dst *float64, src *float32, n int) { noSIMD() }

func subNarrowedAVX2(dst *float64, p *float32, start *float64, n int) { noSIMD() }

func narrowBytesAVX2(dst *byte, src *float64, n int) { noSIMD() }

func widenBytesAVX2(dst *float64, src *byte, n int) { noSIMD() }

func noSIMD() { panic("tensor: elementwise kernel called without SIMD support") }
