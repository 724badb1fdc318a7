package tensor

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
)

// special32 are the float32 values an elementwise kernel can get wrong:
// both zeros, NaNs with payloads (one signalling), both infinities,
// subnormals, the normal-range edges.
var special32 = []uint32{
	0x00000000, 0x80000000, 0x7fc00abc, 0xffc12345, 0x7f800001, 0x7f800000, 0xff800000,
	0x00000001, 0x807fffff, 0x00400000, 0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff,
}

// elemInputs32 draws n float32s, each one of the specials, an arbitrary
// bit pattern or a normal sample, so every length sees every kind.
func elemInputs32(r *stats.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch r.Intn(3) {
		case 0:
			v[i] = math.Float32frombits(special32[r.Intn(len(special32))])
		case 1:
			v[i] = math.Float32frombits(uint32(r.Uint64()))
		default:
			v[i] = float32(r.Norm())
		}
	}
	return v
}

func elemLengths() []int {
	var ns []int
	for n := 0; n <= 33; n++ {
		ns = append(ns, n)
	}
	return append(ns, 8554, 431080)
}

func assertBits32(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: got %x want %x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestElementwiseKernelsMatchScalarLoops compares every elementwise kernel
// with its scalar loop written out here, bit for bit, with the vector
// kernels on and off, over lengths 0–33 (every tail), 8 554 (the MLP) and
// 431 080 (the paper CNN) and slices that start off a vector boundary.
func TestElementwiseKernelsMatchScalarLoops(t *testing.T) {
	forEachLevel(t, func(level string) {
		for _, n := range elemLengths() {
			r := stats.NewRNG(uint64(n) + 1)
			label := func(kernel string) string { return fmt.Sprintf("%s level=%s n=%d", kernel, level, n) }

			// SGD momentum. One quarter of the lanes decay a velocity
			// near the bottom of the normal range with a zero gradient,
			// the case the flush exists for.
			p, v, g := elemInputs32(r, n+1)[1:], elemInputs32(r, n), elemInputs32(r, n)
			for i := range g {
				if r.Intn(4) == 0 {
					g[i] = float32(math.Copysign(0, float64(1-2*r.Intn(2))))
					v[i] = math.Float32frombits(0x00800000 + uint32(r.Intn(1<<21)) | uint32(r.Intn(2))<<31)
				}
			}
			wantP, wantV := append([]float32(nil), p...), append([]float32(nil), v...)
			const lr, mom = float32(0.05), float32(0.9)
			for i := range g {
				x := FlushSubnormal32(float32(mom*wantV[i]) + g[i])
				wantV[i] = x
				wantP[i] -= float32(lr * x)
			}
			SGDMomentum(p, v, g, lr, mom)
			assertBits32(t, v, wantV, label("SGDMomentum velocity"))
			assertBits32(t, p, wantP, label("SGDMomentum params"))

			// ReLU, out of place and in place, then its backward pass from
			// the output, which must equal the mask of the input.
			x, y := elemInputs32(r, n+1)[1:], make([]float32, n)
			want := make([]float32, n)
			for i, v := range x {
				if v > 0 || v != v {
					want[i] = v
				}
			}
			ReLU(y, x)
			assertBits32(t, y, want, label("ReLU"))
			ReLU(x, x)
			assertBits32(t, x, want, label("ReLU in place"))
			g, dx := elemInputs32(r, n), make([]float32, n)
			for i := range want {
				want[i] = 0
				if y[i] > 0 || y[i] != y[i] {
					want[i] = g[i]
				}
			}
			ReLUBackward(dx, y, g)
			assertBits32(t, dx, want, label("ReLUBackward"))
			arbitrary := elemInputs32(r, n)
			for i := range want {
				want[i] = g[i]
				if arbitrary[i] <= 0 {
					want[i] = 0
				}
			}
			ReLUBackward(g, arbitrary, g)
			assertBits32(t, g, want, label("ReLUBackward in place, arbitrary y"))
		}
	})
}

// TestElementwiseKernelsPanicOnShortOutput: a destination shorter than the
// input is a bounds panic before any kernel touches memory.
func TestElementwiseKernelsPanicOnShortOutput(t *testing.T) {
	forEachLevel(t, func(level string) {
		f32, f64 := make([]float32, 16), make([]float64, 16)
		mustPanic(t, "SGDMomentum", func() { SGDMomentum(f32[:8], f32, f32, 1, 1) })
		mustPanic(t, "ReLU", func() { ReLU(f32[:8], f32) })
		mustPanic(t, "ReLUBackward", func() { ReLUBackward(f32, f32[:8], f32) })
		mustPanic(t, "Narrow", func() { Narrow(f32[:8], f64) })
		mustPanic(t, "Widen", func() { Widen(f64[:8], f32) })
		mustPanic(t, "SubNarrowed", func() { SubNarrowed(f64, f32, f64[:8]) })
		mustPanic(t, "NarrowLE", func() { NarrowLE(make([]byte, 63), f64) })
	})
}

// assertBitsOrNaN32 is assertBits32 for sums: two NaNs match whatever
// their payloads, since Go leaves open which operand's payload a sum of two
// NaNs carries and each compiled loop picks its own operand order.
func assertBitsOrNaN32(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i := range want {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: got %x want %x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestRowKernelsMatchScalarLoops compares CopyRows and AddRows with their
// loops written out, at every dispatch level, over widths 1–40 (every
// eight- and four-lane tail), one and three rows, and both stride kinds on
// each side — rows packed back to back and rows with a gap the kernel must
// not touch.
func TestRowKernelsMatchScalarLoops(t *testing.T) {
	forEachLevel(t, func(level string) {
		r := stats.NewRNG(91)
		for width := 1; width <= 40; width++ {
			for _, rows := range []int{1, 3} {
				for _, gaps := range [][2]int{{0, 0}, {3, 0}, {0, 5}, {3, 5}} {
					ds, ss := width+gaps[0], width+gaps[1]
					label := fmt.Sprintf("%s width=%d rows=%d strides=%d,%d", level, width, rows, ds, ss)
					src := elemInputs32(r, rows*ss+1)[1:] // off a vector boundary
					got := elemInputs32(r, rows*ds)
					want := append([]float32(nil), got...)
					for row := 0; row < rows; row++ {
						for i := 0; i < width; i++ {
							want[row*ds+i] = src[row*ss+i]
						}
					}
					CopyRows(got, ds, src, ss, rows, width)
					assertBits32(t, got, want, "CopyRows "+label)

					got = elemInputs32(r, rows*ds)
					want = append(want[:0], got...)
					for row := 0; row < rows; row++ {
						for i := 0; i < width; i++ {
							want[row*ds+i] += src[row*ss+i]
						}
					}
					AddRows(got, ds, src, ss, rows, width)
					assertBitsOrNaN32(t, got, want, "AddRows "+label)
				}
			}
		}
		f := make([]float32, 64)
		CopyRows(f, 8, f[32:], 8, 0, 8) // no rows: nothing to check, nothing to panic on
		mustPanic(t, "CopyRows short dst", func() { CopyRows(f[:23], 8, f[32:], 8, 3, 8) })
		mustPanic(t, "CopyRows short src", func() { AddRows(f, 8, f[:23], 8, 3, 8) })
		mustPanic(t, "AddRows negative stride", func() { AddRows(f[32:], -8, f, 8, 3, 8) })
	})
}

// poolPlaneLoop is MaxPool2D's plane loop as it was before the vector
// kernel, with its key and select: out at outOff and argmax entries
// relative to the layer's whole output.
func poolPlaneLoop(out, in []float32, argmax []int, outOff, inOff, w int) {
	key := func(f float32) int {
		b := int32(math.Float32bits(f))
		sign := b >> 31
		return int((b ^ sign&0x7fffffff) - sign)
	}
	pick := func(best, bi, k, i int) (int, int) {
		m := (best - k) >> 63
		return best ^ (best^k)&m, bi ^ (bi^i)&m
	}
	ow := w / 2
	for oy := 0; oy < len(out)/ow; oy++ {
		r0 := in[2*oy*w : 2*oy*w+w]
		r1 := in[2*oy*w+w : 2*oy*w+2*w]
		outRow := out[oy*ow : oy*ow+ow]
		for ox := range outRow {
			i := 2 * ox
			best, bi := key(r0[i]), i
			best, bi = pick(best, bi, key(r0[i+1]), i+1)
			best, bi = pick(best, bi, key(r1[i]), w+i)
			_, bi = pick(best, bi, key(r1[i+1]), w+i+1)
			outRow[ox] = in[2*oy*w+bi]
			if argmax != nil {
				argmax[outOff+oy*ow+ox] = inOff + 2*oy*w + bi
			}
		}
	}
}

// poolValues are the taps a 2×2 max can get wrong, drawn often enough that
// windows tie: signed zeros, equal finite values, infinities, subnormals
// and NaNs of both signs (0xffffffff orders below every negative number,
// 0x7fc00000 above +Inf).
var poolValues = []uint32{
	0x00000000, 0x80000000, 0x3f800000, 0xbf800000, 0x40000000, 0x7f800000, 0xff800000,
	0x00000001, 0x80000001, 0x7fc00000, 0xffffffff, 0x7f800001, 0xffc00abc,
}

// TestMaxPool2x2MatchesPlaneLoop compares MaxPool2x2 with the plane loop
// it replaced, values and argmax bit for bit, at every dispatch level:
// output widths 1–20 (the vector kernel takes the multiples of 4, the rest
// fall back), one to three window rows, planes of ties, signed zeros and
// NaNs as well as normal values, argmax at an offset into the layer's
// buffer and a nil argmax.
func TestMaxPool2x2MatchesPlaneLoop(t *testing.T) {
	forEachLevel(t, func(level string) {
		r := stats.NewRNG(93)
		for ow := 1; ow <= 20; ow++ {
			w := 2 * ow
			for rows := 1; rows <= 3; rows++ {
				for _, ties := range []bool{false, true} {
					label := fmt.Sprintf("%s ow=%d rows=%d ties=%v", level, ow, rows, ties)
					in := make([]float32, 2*rows*w)
					for i := range in {
						if ties || r.Intn(4) == 0 {
							in[i] = math.Float32frombits(poolValues[r.Intn(len(poolValues))])
						} else {
							in[i] = float32(r.Norm())
						}
					}
					const outOff, inOff = 5, 1000003
					got, want := make([]float32, rows*ow), make([]float32, rows*ow)
					gotArg, wantArg := make([]int, outOff+rows*ow+2), make([]int, outOff+rows*ow+2)
					for i := range gotArg {
						gotArg[i], wantArg[i] = -7, -7
					}
					MaxPool2x2(got, in, w, gotArg[outOff:outOff+rows*ow], inOff)
					poolPlaneLoop(want, in, wantArg, outOff, inOff, w)
					assertBits32(t, got, want, "MaxPool2x2 "+label)
					for i := range wantArg {
						if gotArg[i] != wantArg[i] {
							t.Fatalf("MaxPool2x2 %s: argmax[%d] = %d, want %d", label, i, gotArg[i], wantArg[i])
						}
					}
					clear(got)
					MaxPool2x2(got, in, w, nil, 0)
					assertBits32(t, got, want, "MaxPool2x2 nil argmax "+label)
				}
			}
		}
		mustPanic(t, "MaxPool2x2 odd width", func() { MaxPool2x2(make([]float32, 4), make([]float32, 12), 3, nil, 0) })
		mustPanic(t, "MaxPool2x2 short out", func() { MaxPool2x2(make([]float32, 3, 8), make([]float32, 16), 8, nil, 0) })
		mustPanic(t, "MaxPool2x2 short argmax", func() { MaxPool2x2(make([]float32, 4), make([]float32, 16), 8, make([]int, 3, 8), 0) })
	})
}

// TestBiasAddMatchesScalarLoop compares AddBias with its loop written out,
// at every dispatch level, over planes of 1–40 elements (every eight- and
// four-lane tail) and biases that include ±0 (skipped, so −0 elements
// survive), NaN and infinities; the element past the last plane must be
// left alone.
func TestBiasAddMatchesScalarLoop(t *testing.T) {
	forEachLevel(t, func(level string) {
		r := stats.NewRNG(92)
		for plane := 1; plane <= 40; plane++ {
			b := elemInputs32(r, 9)
			b[0], b[1] = 0, float32(math.Copysign(0, -1))
			got := elemInputs32(r, len(b)*plane+1)
			want := append([]float32(nil), got...)
			for c, v := range b {
				for i := c * plane; i < (c+1)*plane && v != 0; i++ {
					want[i] += v
				}
			}
			AddBias(got, b, plane)
			assertBitsOrNaN32(t, got, want, fmt.Sprintf("%s AddBias plane=%d", level, plane))
		}
		mustPanic(t, "AddBias short dst", func() { AddBias(make([]float32, 15), make([]float32, 2), 8) })
	})
}

// TestTapKernelsMatchRowLoops compares CopyTaps and AddTaps with the row
// loops they replace (one CopyRows or AddRows per channel and tap over the
// columns it reads inside the input, channels and taps ascending), at
// every dispatch level, over kernel sizes 1–5, padding 0–2, input widths
// 1–20 and one or three channels whose spans sit gaps apart, so every
// tail, the eight-wide rows and every tap that reads nothing but padding
// come up; patch elements no tap writes must keep their values.
func TestTapKernelsMatchRowLoops(t *testing.T) {
	forEachLevel(t, func(level string) {
		r := stats.NewRNG(93)
		for k := 1; k <= 5; k++ {
			for pad := 0; pad <= 2; pad++ {
				for w := 1; w <= 20; w++ {
					ow := w + 2*pad - k + 1
					if ow <= 0 {
						continue
					}
					for _, channels := range []int{1, 3} {
						const rows = 3
						plane := rows*ow + 2
						g := Taps{K: k, Pad: pad, W: w, OW: ow, Rows: rows, Plane: plane,
							Channels: channels, PatchStride: k*plane + 5, ImageStride: rows*w + 3}
						label := fmt.Sprintf("%s k=%d pad=%d w=%d channels=%d", level, k, pad, w, channels)
						image := elemInputs32(r, channels*g.ImageStride+1)[1:] // off a vector boundary
						got := elemInputs32(r, channels*g.PatchStride)
						want := append([]float32(nil), got...)
						for kx := 0; kx < k; kx++ {
							lo, hi := max(0, pad-kx), min(ow, w+pad-kx)
							for c := 0; c < channels && lo < hi; c++ {
								CopyRows(want[c*g.PatchStride+kx*plane+lo:], ow, image[c*g.ImageStride+lo+kx-pad:], w, rows, hi-lo)
							}
						}
						CopyTaps(got, image, g)
						assertBits32(t, got, want, "CopyTaps "+label)

						patch := got
						gotImg := append([]float32(nil), image...)
						wantImg := append([]float32(nil), image...)
						for kx := 0; kx < k; kx++ {
							lo, hi := max(0, pad-kx), min(ow, w+pad-kx)
							for c := 0; c < channels && lo < hi; c++ {
								AddRows(wantImg[c*g.ImageStride+lo+kx-pad:], w, patch[c*g.PatchStride+kx*plane+lo:], ow, rows, hi-lo)
							}
						}
						AddTaps(gotImg, patch, g)
						assertBitsOrNaN32(t, gotImg, wantImg, "AddTaps "+label)
					}
				}
			}
		}
		f := make([]float32, 64)
		g := Taps{K: 3, W: 4, OW: 4, Rows: 2, Plane: 8, Channels: 1}
		mustPanic(t, "CopyTaps short patch", func() { CopyTaps(f[:20], f[32:], g) })
		mustPanic(t, "AddTaps short image", func() { AddTaps(f[:7], f[32:], g) })
		g.Pad = -1
		mustPanic(t, "CopyTaps negative padding", func() { CopyTaps(f, f[32:], g) })
	})
}
