package tensor

// Assembly bindings for the select and max kernels in select_amd64.s.
// The gather and max-key kernels take n > 0, a multiple of 4, the
// max-index kernel a multiple of 8; the gather kernel takes a dst of at
// least n, the compress kernel room ≥ CompressSlack, and it returns where
// it stopped.

//go:noescape
func gatherKeysAVX2(dst, v *float64, n int, lo, hi uint64, perm *permEntry) (above, inside int)

//go:noescape
func compressAboveAVX2(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int, perm *permEntry) (i, out, tiesLeft int)

//go:noescape
func maxIndexAVX2(idx *int32, n int) uint32

//go:noescape
func maxKeyAVX2(v *float64, n int) uint64
