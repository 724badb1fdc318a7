//go:build !amd64

package compress

// planeKernels is the switch the amd64 build's tests flip; there is no
// kernel to switch here.
var planeKernels = false

// decodeGroups decodes nothing without the amd64 kernel: the portable
// loop decodes every value.
func decodeGroups(vals []float64, h *sectionHead, r *[4]bitReader) int { return 0 }
