package nn

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// im2colLoop and col2imLoop are Conv2D's lowering as it was before the
// strided row kernels: row by row, each output row as padding, one copy (or
// one add loop) over the columns that land inside the input, padding.
func im2colLoop(c *Conv2D, dst, in []float32, h, w, oh, ow int) {
	k, pad := c.K, c.Pad
	row := 0
	for ic := 0; ic < c.InC; ic++ {
		plane := in[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				lo, hi, ix := tapRange(kx, pad, w, ow)
				out := dst[row*oh*ow : (row+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					iy := oy + ky - pad
					dstRow := out[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						clear(dstRow)
						continue
					}
					clear(dstRow[:lo])
					copy(dstRow[lo:hi], plane[iy*w+ix:iy*w+ix+hi-lo])
					clear(dstRow[hi:])
				}
				row++
			}
		}
	}
}

func col2imLoop(c *Conv2D, dplane, src []float32, h, w, oh, ow int) {
	k, pad := c.K, c.Pad
	plane := oh * ow
	row := 0
	for ic := 0; ic < c.InC; ic++ {
		target := dplane[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				lo, hi, ix := tapRange(kx, pad, w, ow)
				patch := src[row*plane : (row+1)*plane]
				for oy := 0; oy < oh; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					sRow := patch[oy*ow+lo : oy*ow+hi]
					t := target[iy*w+ix:][:len(sRow)]
					for i, v := range sRow {
						t[i] += v
					}
				}
				row++
			}
		}
	}
}

// forEachKernelLevel runs fn at every tensor dispatch level this CPU can
// run, logging which levels ran and which it cannot.
func forEachKernelLevel(t *testing.T, fn func(level string)) {
	t.Helper()
	for _, level := range []string{"portable", "avx2", "avx512"} {
		restore, ok := tensor.SetKernelLevel(level)
		if !ok {
			t.Logf("dispatch level %s: not supported by this CPU, skipped", level)
			continue
		}
		t.Logf("dispatch level %s: ran", level)
		func() {
			defer restore() // also when fn fails the test
			fn(level)
		}()
	}
}

// lowerInput draws float32s of every kind an add can treat differently:
// normal values, ±0, NaNs with payloads, ±Inf and subnormals.
func lowerInput(r *stats.RNG, n int) []float32 {
	special := []uint32{0x00000000, 0x80000000, 0x7fc00abc, 0xffffffff, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff}
	v := make([]float32, n)
	for i := range v {
		if r.Intn(8) == 0 {
			v[i] = math.Float32frombits(special[r.Intn(len(special))])
		} else {
			v[i] = float32(r.Norm())
		}
	}
	return v
}

// assertSameBits fails unless got and want hold the same bits, except that
// with anyNaN two NaNs match whatever their payloads: Go leaves open which
// operand's payload a sum of two NaNs carries, and the compiler picks the
// operand order of each loop's add.
func assertSameBits(t *testing.T, got, want []float32, anyNaN bool, label string) {
	t.Helper()
	for i := range want {
		if anyNaN && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d: got %x want %x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestConvLoweringMatchesRowLoops compares im2col and col2im with the row
// loops they replaced, bit for bit, at every dispatch level: input widths
// 1–40 (every eight-lane tail, the paper CNN's 12 and 28), square and
// non-square planes, kernels 1, 3 and 5, padding 0, 1 and 2. The im2col
// destination starts out dirty, so a cell the lowering fails to write or
// clear shows; col2im adds onto a dirty gradient with NaNs, infinities and
// signed zeros in both operands (a sum of two NaNs may keep either payload).
func TestConvLoweringMatchesRowLoops(t *testing.T) {
	forEachKernelLevel(t, func(level string) {
		r := stats.NewRNG(71)
		for w := 1; w <= 40; w++ {
			for _, k := range []int{1, 3, 5} {
				for pad := 0; pad <= 2; pad++ {
					h := 1 + (w*7+k)%12
					oh, ow := h+2*pad-k+1, w+2*pad-k+1
					if oh <= 0 || ow <= 0 {
						continue
					}
					const inC = 2
					c := &Conv2D{InC: inC, K: k, Pad: pad}
					label := fmt.Sprintf("%s h=%d w=%d k=%d pad=%d", level, h, w, k, pad)
					in := lowerInput(r, inC*h*w)
					ckk := inC * k * k
					got, want := lowerInput(r, ckk*oh*ow), make([]float32, ckk*oh*ow)
					copy(want, got)
					c.im2col(got, in, h, w, oh, ow)
					im2colLoop(c, want, in, h, w, oh, ow)
					assertSameBits(t, got, want, false, "im2col "+label)

					src := lowerInput(r, ckk*oh*ow)
					gotD := lowerInput(r, inC*h*w)
					wantD := append([]float32(nil), gotD...)
					c.col2im(gotD, src, h, w, oh, ow)
					col2imLoop(c, wantD, src, h, w, oh, ow)
					assertSameBits(t, gotD, wantD, true, "col2im "+label)
				}
			}
		}
	})
}

// TestFLOPsPerSampleIndependentOfTraining: a fresh model reports the cost
// it reports after a train batch, derived from its InputShape rather than
// from the last input a layer cached.
func TestFLOPsPerSampleIndependentOfTraining(t *testing.T) {
	cases := []struct {
		name  string
		model *Model
		want  float64
	}{
		// conv1 20·24²·25, conv2 50·8²·500, dense 800·500 + 500·10.
		{"PaperCNN", NewPaperCNN(stats.NewRNG(81)), 288000 + 1600000 + 400000 + 5000},
		{"VGGLite", NewVGGLite(3, 32, 10, stats.NewRNG(82)), 0},
		{"ResNetLite", NewResNetLite(3, 16, 10, stats.NewRNG(83)), 0},
		{"ImageMLP", NewImageMLP([]int{1, 28, 28}, []int{64}, 10, stats.NewRNG(84)), 784*64 + 64*10},
	}
	for _, c := range cases {
		fresh := c.model.FLOPsPerSample()
		if c.want != 0 && fresh != c.want {
			t.Errorf("%s: fresh FLOPsPerSample %v, want %v", c.name, fresh, c.want)
		}
		x := tensor.New(append([]int{4}, c.model.InputShape...)...)
		x.RandNorm(stats.NewRNG(85), 1)
		c.model.Forward(x, false)
		if got := c.model.FLOPsPerSample(); got != fresh {
			t.Errorf("%s: FLOPsPerSample %v after an eval forward, %v fresh", c.name, got, fresh)
		}
		labels := make([]int, 4)
		c.model.TrainBatch(x, labels)
		if got := c.model.FLOPsPerSample(); got != fresh {
			t.Errorf("%s: FLOPsPerSample %v after a train batch, %v fresh", c.name, got, fresh)
		}
	}
}
