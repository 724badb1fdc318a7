//go:build !amd64

package tensor

// Non-amd64 builds run the select and max passes as their scalar loops
// (select.go): kernelLevel is levelPortable, so none of these is reached.

func gatherKeysAVX2(dst, v *float64, n int, lo, hi uint64, perm *permEntry) (above, inside int) {
	noSIMD()
	return
}

func compressAboveAVX2(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int, perm *permEntry) (i, out, tiesLeft int) {
	noSIMD()
	return
}

func maxIndexAVX2(idx *int32, n int) uint32 { noSIMD(); return 0 }

func maxKeyAVX2(v *float64, n int) uint64 { noSIMD(); return 0 }
