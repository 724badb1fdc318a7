//go:build !amd64

package tensor

// Non-amd64 builds run every elementwise pass as its scalar loop
// (elem.go): kernelLevel is levelPortable, so none of these is reached.

func sgdMomentumAVX2(p, v, grad *float32, n int, lr, mom float32) { noSIMD() }

func reluAVX2(dst, src *float32, n int) { noSIMD() }

func reluBackwardAVX2(dx, y, grad *float32, n int) { noSIMD() }

func subWidenAVX2(dst *float64, p, start *float32, n int) { noSIMD() }

func addRowsAVX2(dst *float32, dstStride int, src *float32, srcStride, rows, width int) { noSIMD() }

func addBiasAVX2(dst, b *float32, channels, plane int) { noSIMD() }

func tapsAVX2(patch, image *float32, geo *Taps, add bool) { noSIMD() }

func maxPool2x2AVX2(out, in *float32, argmax *int, rows, w, inOff int) { noSIMD() }

func noSIMD() { panic("tensor: elementwise kernel called without SIMD support") }

func normPairsAVX2(dst *float64, w *uint64, n int) int { noSIMD(); return 0 }
