package tensor

import (
	"encoding/binary"
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

// special64 adds the float64 values a narrowing can get wrong: NaN
// payloads below float32's, values that overflow float32 or round to its
// largest finite value, values that underflow to zero or land among its
// subnormals, float64 subnormals and ties to even in both directions.
var special64 = []float64{
	math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff4000012345678),
	math.Float64frombits(0x7ff0000000000001), 1e39, -1e300, math.MaxFloat32, 3.4028235677973366e38,
	-3.4028235677973362e38, 1e-46, -1e-50, 0x1p-150, 0x1.8p-150, 0x1p-149, 1e-40, -1.1754942e-38,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1 + 0x1p-24, 1 + 0x3p-24, -(1 + 0x1p-24),
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

// elemInputs64 is elemInputs32 for float64, with the float32 specials
// widened and special64 among the specials.
func elemInputs64(r *stats.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r.Intn(4) {
		case 0:
			v[i] = float64(math.Float32frombits(special32[r.Intn(len(special32))]))
		case 1:
			v[i] = special64[r.Intn(len(special64))]
		case 2:
			v[i] = math.Float64frombits(r.Uint64())
		default:
			v[i] = r.Norm()
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

func assertBits64(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: got %x want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestElementwiseKernelsMatchScalarLoops compares every elementwise kernel
// with its scalar loop written out here, bit for bit, with the vector
// kernels on and off, over lengths 0–33 (every tail), 8 554 (the MLP) and
// 431 080 (the paper CNN), slices that start off a vector boundary, and
// byte buffers at the offset a received frame body has.
func TestElementwiseKernelsMatchScalarLoops(t *testing.T) {
	forEachSIMDMode(t, func(simd bool) {
		for _, n := range elemLengths() {
			r := stats.NewRNG(uint64(n) + 1)
			label := func(kernel string) string { return fmt.Sprintf("%s simd=%v n=%d", kernel, simd, n) }

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

			// The vector boundary: narrow, widen, the delta from a
			// narrowed start, and the byte forms at a frame body's offset.
			src64, src32 := elemInputs64(r, n+1)[1:], elemInputs32(r, n+1)[1:]
			n32, w64, d64 := make([]float32, n), make([]float64, n), make([]float64, n)
			want32, want64 := make([]float32, n), make([]float64, n)
			for i := range src64 {
				want32[i] = float32(src64[i])
			}
			Narrow(n32, src64)
			assertBits32(t, n32, want32, label("Narrow"))
			for i := range src32 {
				want64[i] = float64(src32[i])
			}
			Widen(w64, src32)
			assertBits64(t, w64, want64, label("Widen"))
			for i := range src32 {
				want64[i] = float64(src32[i]) - float64(float32(src64[i]))
			}
			SubNarrowed(d64, src32, src64)
			assertBits64(t, d64, want64, label("SubNarrowed"))

			frame := make([]byte, 18+4*n+3)
			body := frame[18 : 18+4*n]
			wantBytes := make([]byte, 4*n)
			for i, v := range src64 {
				binary.LittleEndian.PutUint32(wantBytes[4*i:], math.Float32bits(float32(v)))
			}
			NarrowLE(body, src64)
			for i := range wantBytes {
				if body[i] != wantBytes[i] {
					t.Fatalf("%s: byte %d: got %#x want %#x", label("NarrowLE"), i, body[i], wantBytes[i])
				}
			}
			for i := range body {
				body[i] = byte(r.Uint64())
			}
			for i := range want64 {
				want64[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
			}
			WidenLE(w64, body)
			assertBits64(t, w64, want64, label("WidenLE"))
		}
	})
}

// TestElementwiseKernelsPanicOnShortOutput: a destination shorter than the
// input is a bounds panic before any kernel touches memory.
func TestElementwiseKernelsPanicOnShortOutput(t *testing.T) {
	forEachSIMDMode(t, func(simd bool) {
		f32, f64 := make([]float32, 16), make([]float64, 16)
		mustPanic(t, "SGDMomentum", func() { SGDMomentum(f32[:8], f32, f32, 1, 1) })
		mustPanic(t, "ReLU", func() { ReLU(f32[:8], f32) })
		mustPanic(t, "ReLUBackward", func() { ReLUBackward(f32, f32[:8], f32) })
		mustPanic(t, "Narrow", func() { Narrow(f32[:8], f64) })
		mustPanic(t, "Widen", func() { Widen(f64[:8], f32) })
		mustPanic(t, "SubNarrowed", func() { SubNarrowed(f64, f32, f64[:8]) })
		mustPanic(t, "NarrowLE", func() { NarrowLE(make([]byte, 63), f64) })
		mustPanic(t, "WidenLE", func() { WidenLE(f64, make([]byte, 63)) })
	})
}
