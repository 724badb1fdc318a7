//go:build !amd64

package tensor

// Non-amd64 builds run the select passes, the max passes and the f64
// moves as their scalar loops (select.go): kernelLevel is levelPortable,
// so none of these is reached.

func gatherKeysAVX512(dst, v *float64, n int, lo, hi uint64) (above, inside int) {
	noSIMD()
	return
}

func gatherKeysAVX2(dst, v *float64, n int, lo, hi uint64, perm *permEntry) (above, inside int) {
	noSIMD()
	return
}

func compressAboveAVX512(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int) (i, out, tiesLeft int) {
	noSIMD()
	return
}

func compressAboveAVX2(idx *int32, vals *float64, room int, v *float64, n int, thr uint64, ties int, perm *permEntry) (i, out, tiesLeft int) {
	noSIMD()
	return
}

func maxIndexAVX512(idx *int32, n int) uint32 { noSIMD(); return 0 }

func maxIndexAVX2(idx *int32, n int) uint32 { noSIMD(); return 0 }

func maxKeyAVX512(v *float64, n int) uint64 { noSIMD(); return 0 }

func maxKeyAVX2(v *float64, n int) uint64 { noSIMD(); return 0 }

func putF64sAVX2(dst *byte, src *float64, n int) { noSIMD() }

func readF64sAVX2(dst *float64, src *byte, n int) { noSIMD() }
