package tensor

// Assembly bindings for the AVX2+FMA micro-kernel in gemm_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func gemmTileFMA(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k int)

// detectSIMD reports whether the CPU and OS support the AVX2+FMA kernels:
// CPUID must advertise FMA, AVX and AVX2, the OS must have enabled XSAVE
// (OSXSAVE) and be preserving XMM+YMM state across context switches.
func detectSIMD() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
