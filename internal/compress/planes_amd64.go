package compress

import (
	"math/bits"
	"unsafe"
)

// Assembly binding for the byte-plane decode kernel in planes_amd64.s. It
// uses the baseline amd64 instruction set only, so every amd64 host runs
// it; planeKernels turns it off for the tests that hold it to the
// portable loops. Encoding has no kernel; DESIGN.md §GEMM kernel's
// "Assembly ledger" records why.

var planeKernels = true

// planeState is one plane stream as decodePlanesAMD64 reads it: its
// unconsumed bits below a sentinel bit, and the next bytes.
type planeState struct {
	acc uint64
	src *byte
}

// decodePlanesAMD64 decodes groups × 5 values into vals from the four
// streams of st, plane p under table tabs[p]. Each stream must hold a
// whole word at every one of its groups' loads: at least 8 + 7·(groups-1)
// bytes.
//
//go:noescape
func decodePlanesAMD64(vals *float64, groups int, tabs *[4][huffTableLen]uint16, st *[4]planeState)

// decodeGroups decodes the values of vals, from the first, that the
// kernel can reach with whole-word loads on every stream of r, coded as h
// says, and returns how many it decoded.
func decodeGroups(vals []float64, h *sectionHead, r *[4]bitReader) int {
	done := 0
	for planeKernels {
		// A call's first load advances a stream at most 7 bytes; every
		// later one at most the whole bytes of five of its longest codes
		// below the 7 bits a load can leave unconsumed.
		g := (len(vals) - done) / 5
		for p := range r {
			switch n, step := len(r[p].src), int(7+5*h.planes[p].longest)/8; {
			case n < 8:
				return done
			case n < 15:
				g = min(g, 1)
			default:
				g = min(g, (n-15)/step+2)
			}
		}
		if g == 0 {
			return done
		}
		var st [4]planeState
		for p := range r {
			st[p] = planeState{acc: r[p].acc&(1<<r[p].n-1) | 1<<r[p].n, src: &r[p].src[0]}
		}
		decodePlanesAMD64(&vals[done], g, h.tabs, &st)
		for p := range r {
			n := uint(bits.Len64(st[p].acc) - 1)
			used := uintptr(unsafe.Pointer(st[p].src)) - uintptr(unsafe.Pointer(&r[p].src[0]))
			r[p].acc, r[p].n, r[p].src = st[p].acc&^(1<<n), n, r[p].src[used:]
		}
		done += 5 * g
	}
	return done
}
