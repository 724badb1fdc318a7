//go:build !amd64

package tensor

// Non-amd64 builds always run the portable tile kernel (gemmTileGo).

func detectSIMD() bool { return false }

func gemmTileFMA(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k int) {
	panic("tensor: gemmTileFMA called without SIMD support")
}
