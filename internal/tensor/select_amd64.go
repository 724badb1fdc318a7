package tensor

// Assembly bindings for the select and f64 kernels in select_amd64.s.
// The gather kernels take n > 0, a multiple of 8 (AVX-512) or 4 (AVX2),
// and a dst of at least n; the compress kernels take n > 0, a multiple of
// 16 or 4, and room ≥ CompressSlack, and return where they stopped. The
// max kernels take n > 0, a multiple of 16 or 8 (indices) and 8 or 4
// (keys). The f64 moves take n > 0, a multiple of 8.

//go:noescape
func gatherKeysAVX512(dst, v *float64, n int, lo, hi uint64) (above, inside int)

//go:noescape
func gatherKeysAVX2(dst, v *float64, n int, lo, hi uint64, perm *permEntry) (above, inside int)

//go:noescape
func compressAboveAVX512(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int) (i, out, tiesLeft int)

//go:noescape
func compressAboveAVX2(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int, perm *permEntry) (i, out, tiesLeft int)

//go:noescape
func putF64sAVX2(dst *byte, src *float64, n int)

//go:noescape
func readF64sAVX2(dst *float64, src *byte, n int)

//go:noescape
func maxIndexAVX512(idx *int32, n int) uint32

//go:noescape
func maxIndexAVX2(idx *int32, n int) uint32

//go:noescape
func maxKeyAVX512(v *float64, n int) uint64

//go:noescape
func maxKeyAVX2(v *float64, n int) uint64
