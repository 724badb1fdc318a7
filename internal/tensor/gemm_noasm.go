//go:build !amd64

package tensor

// Non-amd64 builds always run the portable kernels: detectLevel reports
// levelPortable, so none of these is reached.

func detectLevel() int { return levelPortable }

func gemmTileAVX2(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int, zero bool) {
	noSIMD()
}

func gemmTileAVX512(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int, zero bool) {
	noSIMD()
}

func transposeAVX2(dst *float32, width int, src *float32, vs, w8, k8 int) { noSIMD() }
