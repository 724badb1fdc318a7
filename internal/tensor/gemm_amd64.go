package tensor

// Assembly bindings for the register tiles and the panel transpose in
// gemm_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// gemmTileAVX2 is one 4×16 half of the tile in eight YMM accumulators,
// started from +0 with zero and loaded from c otherwise.
//
//go:noescape
func gemmTileAVX2(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int, zero bool)

// gemmTileAVX512 is the whole 4×32 tile in eight ZMM accumulators, started
// as gemmTileAVX2's.
//
//go:noescape
func gemmTileAVX512(c *float32, ldc int, a *float32, ars, aps int, b *float32, ldb, k int, zero bool)

// transposeAVX2 writes dst[p*width+s] = src[s*vs+p] for s < w8, p < k8,
// eight by eight; w8 and k8 are positive multiples of 8.
//
//go:noescape
func transposeAVX2(dst *float32, width int, src *float32, vs, w8, k8 int)

// detectLevel returns the highest dispatch level the CPU and OS support.
// levelAVX2 needs CPUID to advertise FMA, AVX, AVX2 and POPCNT (the select
// kernels count mask bits with it) and the OS to have
// enabled XSAVE (OSXSAVE) and to preserve XMM+YMM state across context
// switches (XCR0 bits 1–2); levelAVX512 adds AVX512F and the opmask and
// ZMM state (XCR0 bits 5–7).
func detectLevel() int {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return levelPortable
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		popcntBit  = 1 << 23
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&popcntBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return levelPortable
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return levelPortable
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512FBit = 1 << 16
	)
	switch {
	case ebx7&avx2Bit == 0:
		return levelPortable
	case ebx7&avx512FBit == 0 || xcr0&0xe0 != 0xe0:
		return levelAVX2
	}
	return levelAVX512
}
