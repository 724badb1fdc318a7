package tensor

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Elementwise passes: the passes of a client step outside the GEMM, the
// float64↔float32 moves at the model's vector boundary, and the little-
// endian runs of the wire and the snapshot. Each is one function whose
// portable body is the scalar loop below it. Where a bench workload
// measured a win (DESIGN.md §GEMM kernel, "Assembly ledger"), levelAVX2
// and above run the leading multiple of eight elements through an
// assembly kernel (elem_amd64.s) and the rest through that loop, or, for
// the conv lowering's taps, the whole pass. The kernels compute what the
// loop computes, bit for bit: the loop's operations in its order, each
// rounded on its own, with no fused multiply-add (the explicit float32
// conversions forbid the compiler one, so no architecture contracts the
// loop either).

// simdLen returns how many leading elements of an n-element pass the
// vector kernel takes: the multiple of eight at or below n when it runs,
// else none.
func simdLen(n int) int {
	if kernelLevel >= levelAVX2 {
		return n &^ 7
	}
	return 0
}

// SGDMomentum applies one momentum step to a parameter tensor p with
// velocity v and gradient g: v = flush(mom·v + g); p −= lr·v, where flush
// is FlushSubnormal32. It panics unless p, v and g have one length.
func SGDMomentum(p, v, g []float32, lr, mom float32) {
	if len(p) != len(g) || len(v) != len(g) {
		panic("tensor: SGDMomentum length mismatch")
	}
	p, v = p[:len(g)], v[:len(g)]
	if k := simdLen(len(g)); k > 0 {
		sgdMomentumAVX2(&p[0], &v[0], &g[0], k, lr, mom)
		p, v, g = p[k:], v[k:], g[k:]
	}
	for i, x := range g {
		x = FlushSubnormal32(float32(mom*v[i]) + x)
		v[i] = x
		p[i] -= float32(lr * x)
	}
}

// ReLU writes max(0, x) of src into dst as the compare x ≤ 0 selects it:
// +0 for every x ≤ 0 (−0 included), x itself otherwise (NaN included).
// dst may be src. It panics unless the two have one length.
func ReLU(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: ReLU length mismatch")
	}
	dst = dst[:len(src)]
	if k := simdLen(len(src)); k > 0 {
		reluAVX2(&dst[0], &src[0], k)
		dst, src = dst[k:], src[k:]
	}
	for i, x := range src {
		if x <= 0 {
			x = 0
		}
		dst[i] = x
	}
}

// ReLUBackward writes the gradient of a ReLU's input into dx from the
// layer's output y and the gradient g of that output: 0 where y ≤ 0, g
// elsewhere. y is ReLU's result, so y ≤ 0 exactly where the input was
// ≤ 0 and y > 0 or NaN exactly where it passed. dx may be g. It panics
// unless dx, y and g have one length.
func ReLUBackward(dx, y, g []float32) {
	if len(dx) != len(g) || len(y) != len(g) {
		panic("tensor: ReLUBackward length mismatch")
	}
	dx, y = dx[:len(g)], y[:len(g)]
	if k := simdLen(len(g)); k > 0 {
		reluBackwardAVX2(&dx[0], &y[0], &g[0], k)
		dx, y, g = dx[k:], y[k:], g[k:]
	}
	for i, x := range g {
		if y[i] <= 0 {
			x = 0
		}
		dx[i] = x
	}
}

// Narrow rounds each element of src to the nearest float32 into dst. It
// panics unless the two have one length.
func Narrow(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Narrow length mismatch")
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float32(x)
	}
}

// Widen converts each element of src to float64 (exactly) into dst. It
// panics unless the two have one length.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Widen length mismatch")
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float64(x)
	}
}

// SubNarrowed writes p − start into dst with start taken at float32
// precision: float64(p[i]) − float64(float32(start[i])). It panics unless
// dst, p and start have one length.
func SubNarrowed(dst []float64, p []float32, start []float64) {
	if len(dst) != len(p) || len(start) != len(p) {
		panic("tensor: SubNarrowed length mismatch")
	}
	dst, start = dst[:len(p)], start[:len(p)]
	for i, x := range p {
		dst[i] = float64(x) - float64(float32(start[i]))
	}
}

// SubWiden writes p − start into dst, both widened to float64 first:
// float64(p[i]) − float64(start[i]), which is exact for two float32s
// within a factor 2²⁹ of each other. It panics unless dst, p and start
// have one length.
func SubWiden(dst []float64, p, start []float32) {
	if len(dst) != len(p) || len(start) != len(p) {
		panic("tensor: SubWiden length mismatch")
	}
	dst, start = dst[:len(p)], start[:len(p)]
	if k := simdLen(len(p)); k > 0 {
		subWidenAVX2(&dst[0], &p[0], &start[0], k)
		dst, p, start = dst[k:], p[k:], start[k:]
	}
	for i, x := range p {
		dst[i] = float64(x) - float64(start[i])
	}
}

// NarrowLE writes each element of src rounded to float32 into dst as four
// little-endian bytes. It panics if dst holds fewer than 4·len(src).
func NarrowLE(dst []byte, src []float64) {
	if len(dst) < 4*len(src) {
		panic("tensor: NarrowLE destination too short")
	}
	dst = dst[:4*len(src)]
	for i, x := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
	}
}

// hostLE reports whether this host stores a number's bytes least
// significant first, as amd64 and arm64 do: there a float vector's memory
// is its little-endian encoding, and PutF64LE, ReadF64LE and ReadF32LE are
// one copy each. A big-endian host runs their byte-order loops.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf is v's memory as bytes.
func bytesOf[T float32 | float64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(*new(T))))
}

// PutF64LE writes each element of src into dst as eight little-endian
// bytes. It panics if dst holds fewer than 8·len(src).
func PutF64LE(dst []byte, src []float64) {
	dst = prefix(dst, 8*len(src))
	if hostLE {
		copy(dst, bytesOf(src))
		return
	}
	putF64LE(dst, src)
}

func putF64LE(dst []byte, src []float64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// ReadF64LE reads len(dst) little-endian float64s from src into dst. It
// panics if src holds fewer than 8·len(dst) bytes.
func ReadF64LE(dst []float64, src []byte) {
	src = prefix(src, 8*len(dst))
	if hostLE {
		copy(bytesOf(dst), src)
		return
	}
	readF64LE(dst, src)
}

func readF64LE(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// ReadF32LE reads len(dst) little-endian float32s from src into dst, bit
// for bit. src need not be aligned; it panics if src holds fewer than
// 4·len(dst) bytes.
func ReadF32LE(dst []float32, src []byte) {
	src = prefix(src, 4*len(dst))
	if hostLE {
		copy(bytesOf(dst), src)
		return
	}
	readF32LE(dst, src)
}

func readF32LE(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// rowsSpan slices v to the span a strided pass of rows rows of width
// elements touches, (rows−1)·stride + width, panicking if v is shorter.
func rowsSpan(v []float32, stride, rows, width int) []float32 {
	if stride < 0 {
		panic("tensor: negative row stride")
	}
	return prefix(v, (rows-1)*stride+width)
}

// prefix returns v[:n], panicking if v is shorter: unlike the slice
// expression it does not reach into v's spare capacity.
func prefix[T any](v []T, n int) []T {
	if len(v) < n {
		panic("tensor: slice shorter than the kernel's extent")
	}
	return v[:n]
}

// CopyRows copies rows rows of width elements from src, whose rows start
// srcStride apart, into dst, whose rows start dstStride apart:
// dst[r·dstStride+i] = src[r·srcStride+i]. The two must not overlap. It
// panics if either is too short.
func CopyRows(dst []float32, dstStride int, src []float32, srcStride, rows, width int) {
	if rows <= 0 || width <= 0 {
		return
	}
	dst, src = rowsSpan(dst, dstStride, rows, width), rowsSpan(src, srcStride, rows, width)
	for r := 0; r < rows; r++ {
		copy(dst[r*dstStride:r*dstStride+width], src[r*srcStride:])
	}
}

// AddRows adds rows rows of width elements of src into dst, strided as in
// CopyRows: dst[r·dstStride+i] += src[r·srcStride+i], each one IEEE single
// add with dst's element as the first operand. Row after row, so where
// dstStride < width a later row adds onto an earlier one's sums. The two
// must not overlap. It panics if either is too short.
func AddRows(dst []float32, dstStride int, src []float32, srcStride, rows, width int) {
	if rows <= 0 || width <= 0 {
		return
	}
	dst, src = rowsSpan(dst, dstStride, rows, width), rowsSpan(src, srcStride, rows, width)
	if kernelLevel >= levelAVX2 {
		addRowsAVX2(&dst[0], dstStride, &src[0], srcStride, rows, width)
		return
	}
	for r := 0; r < rows; r++ {
		t := dst[r*dstStride : r*dstStride+width]
		for i, v := range src[r*srcStride : r*srcStride+width] {
			t[i] += v
		}
	}
}

// AddBias adds b[c] to every element of plane c of dst, which holds
// len(b) planes of plane elements back to back: dst[c·plane+i] += b[c],
// each one IEEE single add with dst's element as the first operand. A
// channel whose b[c] is ±0 is skipped, so its plane keeps its −0s. It
// panics if dst is shorter than len(b)·plane.
func AddBias(dst, b []float32, plane int) {
	if plane <= 0 || len(b) == 0 {
		return
	}
	dst = prefix(dst, len(b)*plane)
	if kernelLevel >= levelAVX2 {
		addBiasAVX2(&dst[0], &b[0], len(b), plane)
		return
	}
	for c, v := range b {
		if v == 0 {
			continue
		}
		for i := range dst[c*plane : (c+1)*plane] {
			dst[c*plane+i] += v
		}
	}
}

// Taps is the geometry of one kernel row of a stride-1 convolution's
// lowering, taken over every input channel at once: each channel's input
// plane has rows W wide and starts ImageStride elements after the last;
// its patch holds K blocks Plane elements apart, one per tap, of output
// rows OW wide, and starts PatchStride elements after the last; Rows
// output rows each read one input row, and the kernel row's taps read
// with zero padding Pad.
type Taps struct {
	K, Pad, W, OW, Rows, Plane         int
	Channels, PatchStride, ImageStride int
}

// CopyTaps moves the K taps of one kernel row of a stride-1 convolution's
// lowering, for every channel, in one call. Tap kx reads input column
// x+kx−Pad into output column x for the columns x in [lo, hi) =
// [max(0, Pad−kx), min(OW, W+Pad−kx)) that read inside the input, and
// leaves the others alone (a padded caller clears them): with p and m
// channel c's patch and image,
//
//	p[kx·Plane + r·OW + x] = m[r·W + x + kx − Pad]
//
// Taps run in ascending kx, each over the channels in order, row after
// row. It panics if either side is too short or the geometry is negative.
func CopyTaps(patch, image []float32, g Taps) { taps(patch, image, &g, false) }

// AddTaps is CopyTaps' adjoint, the scatter of a lowering's gradient: each
// tap's patch elements are added onto the image elements CopyTaps reads
// them from, m[r·W + x + kx − Pad] += p[kx·Plane + r·OW + x], each one IEEE
// single add with the image's element as the first operand, in CopyTaps'
// order, so an image element receives its additions in ascending tap
// order. The channels' image spans must not overlap.
func AddTaps(image, patch []float32, g Taps) { taps(patch, image, &g, true) }

func taps(patch, image []float32, g *Taps, add bool) {
	if g.Rows <= 0 || g.K <= 0 || g.Channels <= 0 {
		return
	}
	if g.Plane < 0 || g.OW <= 0 || g.W <= 0 || g.Pad < 0 || g.PatchStride < 0 || g.ImageStride < 0 {
		panic("tensor: tap geometry out of range")
	}
	patch = prefix(patch, (g.Channels-1)*g.PatchStride+(g.K-1)*g.Plane+g.Rows*g.OW)
	image = prefix(image, (g.Channels-1)*g.ImageStride+g.Rows*g.W)
	if kernelLevel >= levelAVX2 {
		tapsAVX2(&patch[0], &image[0], g, add)
		return
	}
	for kx := 0; kx < g.K; kx++ {
		lo, hi := max(0, g.Pad-kx), min(g.OW, g.W+g.Pad-kx)
		for c := 0; c < g.Channels && lo < hi; c++ {
			for r := 0; r < g.Rows; r++ {
				p := patch[c*g.PatchStride+kx*g.Plane+r*g.OW:][lo:hi]
				m := image[c*g.ImageStride+r*g.W+lo+kx-g.Pad:][:len(p)]
				if !add {
					copy(p, m)
					continue
				}
				for i, v := range p {
					m[i] += v
				}
			}
		}
	}
}

// MaxPool2x2 writes into out the maximum of every 2×2 window of the plane
// in, whose rows are w wide (w even; len(in)/(2w) window rows): out's
// element (oy, ox), at oy·w/2+ox, is the largest of in's elements
// (2oy, 2ox), (2oy, 2ox+1), (2oy+1, 2ox) and (2oy+1, 2ox+1), in that order.
// A data-dependent branch per compare mispredicts about once a window, so
// the taps compare as integer keys (poolKey) and the running maximum and
// its index are selected with masks (poolMax): the first of equal maxima
// wins, −0 equals +0, and a NaN orders by its bits instead of losing every
// compare. argmax, when not nil, gets each maximum's flat index in in, plus
// inOff. The vector kernel takes planes whose w/2 is a multiple of 4, four
// windows per step; other widths run the scalar loop.
func MaxPool2x2(out, in []float32, w int, argmax []int, inOff int) {
	if w <= 0 || w%2 != 0 {
		panic("tensor: MaxPool2x2 width not positive and even")
	}
	ow, rows := w/2, len(in)/(2*w)
	out, in = prefix(out, rows*ow), in[:2*rows*w]
	if argmax != nil {
		argmax = prefix(argmax, rows*ow)
	}
	if rows == 0 {
		return
	}
	if kernelLevel >= levelAVX2 && ow%4 == 0 && len(in) <= math.MaxInt32 {
		var am *int
		if argmax != nil {
			am = &argmax[0]
		}
		maxPool2x2AVX2(&out[0], &in[0], am, rows, w, inOff)
		return
	}
	for oy := 0; oy < rows; oy++ {
		r0 := in[2*oy*w : 2*oy*w+w]
		r1 := in[2*oy*w+w : 2*oy*w+2*w]
		outRow := out[oy*ow : oy*ow+ow]
		for ox := range outRow {
			i := 2 * ox
			best, bi := poolKey(r0[i]), i
			best, bi = poolMax(best, bi, poolKey(r0[i+1]), i+1)
			best, bi = poolMax(best, bi, poolKey(r1[i]), w+i)
			_, bi = poolMax(best, bi, poolKey(r1[i+1]), w+i+1)
			outRow[ox] = in[2*oy*w+bi]
			if argmax != nil {
				argmax[oy*ow+ox] = inOff + 2*oy*w + bi
			}
		}
	}
}

// poolKey maps a float32 to an integer of the same order: its sign-
// magnitude bits turned two's complement, so −0 and +0 both map to 0.
func poolKey(f float32) int {
	b := int32(math.Float32bits(f))
	sign := b >> 31 // 0 or −1
	return int((b ^ sign&0x7fffffff) - sign)
}

// poolMax returns (k, i) when k > best and (best, bi) otherwise, without a
// branch.
func poolMax(best, bi, k, i int) (int, int) {
	m := (best - k) >> 63 // all ones when k > best
	return best ^ (best^k)&m, bi ^ (bi^i)&m
}
