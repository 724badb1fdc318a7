package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// serialSynthMNIST renders SynthMNIST's set in one pass over one stream:
// the reference the chunked renderer must reproduce bit for bit.
func serialSynthMNIST(n, size int, seed uint64) *Dataset {
	r := stats.NewRNG(seed)
	ds := &Dataset{
		X:       tensor.New(n, 1, size, size),
		Labels:  make([]int, n),
		Classes: 10,
		Shape:   []int{1, size, size},
	}
	for i := 0; i < n; i++ {
		digit := r.Intn(10)
		ds.Labels[i] = digit
		img := ds.X.Data[i*size*size : (i+1)*size*size]
		renderDigit(img, size, digit, r, make([]float64, size*size))
	}
	return ds
}

// serialSynthCIFAR is the serial SynthCIFAR, sin/cos(orient) per pixel
// and one Norm per colour channel.
func serialSynthCIFAR(n, size, classes int, seed uint64) *Dataset {
	r := stats.NewRNG(seed)
	ds := &Dataset{
		X:       tensor.New(n, 3, size, size),
		Labels:  make([]int, n),
		Classes: classes,
		Shape:   []int{3, size, size},
	}
	plane := size * size
	for i := 0; i < n; i++ {
		cls := r.Intn(classes)
		ds.Labels[i] = cls
		orient := float64(cls%8) * 0.3926990816987241 // π/8 steps
		freq := 1 + float64((cls/8)%4)
		colr := float64(cls%3)/3 + 0.3
		colg := float64((cls+1)%3)/3 + 0.3
		colb := float64((cls+2)%3)/3 + 0.3
		phase := float64(r.Float64() * 6.283185307179586)
		base := ds.X.Data[i*3*plane:]
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				u := float64(x)/float64(size) - 0.5
				v := float64(y)/float64(size) - 0.5
				sinO, cosO := stats.Sincos(orient)
				t := float64(u*cosO) + float64(v*sinO)
				sin, _ := stats.Sincos(float64(2*3.141592653589793*freq*t*4) + phase)
				val := 0.5 + float64(0.5*sin)
				idx := y*size + x
				base[idx] = float32(float64(val*colr) + float64(r.Norm()*0.1))
				base[plane+idx] = float32(float64(val*colg) + float64(r.Norm()*0.1))
				base[2*plane+idx] = float32(float64(val*colb) + float64(r.Norm()*0.1))
			}
		}
	}
	return ds
}

// forEachLevel runs fn at every tensor dispatch level this CPU has: the
// renderers draw their noise through tensor.NormFill.
func forEachLevel(t *testing.T, fn func(level string)) {
	t.Helper()
	for _, name := range []string{"portable", "avx2", "avx512"} {
		restore, ok := tensor.SetKernelLevel(name)
		if !ok {
			t.Logf("dispatch level %s: not supported by this CPU, skipped", name)
			continue
		}
		func() {
			defer restore()
			fn(name)
		}()
	}
}

// withProcs runs f at GOMAXPROCS p.
func withProcs(p int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	f()
}

// sameBits reports the first sample where got and want differ, pixels
// compared as bit patterns, labels included.
func sameBits(got, want *Dataset) error {
	if len(got.Labels) != len(want.Labels) || len(got.X.Data) != len(want.X.Data) {
		return fmt.Errorf("%d samples of %d values, want %d of %d", len(got.Labels), len(got.X.Data), len(want.Labels), len(want.X.Data))
	}
	per := len(want.X.Data) / len(want.Labels)
	for i := range want.X.Data {
		if math.Float32bits(got.X.Data[i]) != math.Float32bits(want.X.Data[i]) {
			return fmt.Errorf("sample %d value %d: %v, want %v", i/per, i%per, got.X.Data[i], want.X.Data[i])
		}
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			return fmt.Errorf("sample %d label %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	return nil
}

// TestSynthMatchesSerial: at any GOMAXPROCS and dispatch level, both
// generators render the serial generator's bits, and every chunk ends
// where the next begins, so none of it is the one-chunk re-render's doing.
// Odd sizes make b odd, so a chunk can open on the spare of its
// predecessor's last pair; n = 301 and 4000 at 7 procs give chunks that
// do. The serial SynthCIFAR draws one Norm per channel, so it also holds
// the renderer's fill to Norm.
func TestSynthMatchesSerial(t *testing.T) {
	before := rerenders.Load()
	defer func() {
		if d := rerenders.Load() - before; d != 0 {
			t.Errorf("%d sets were rendered again as one chunk", d)
		}
	}()
	for _, size := range []int{12, 13, 15, 16, 28} {
		for _, n := range []int{1, 2, 7, 301, 4000} {
			seed := uint64(size*10007 + n)
			mnist := serialSynthMNIST(n, size, seed)
			cifar := serialSynthCIFAR(n, size, 10, seed)
			forEachLevel(t, func(level string) {
				for _, p := range []int{1, 2, 7} {
					withProcs(p, func() {
						if err := sameBits(SynthMNIST(n, size, seed), mnist); err != nil {
							t.Errorf("%s: SynthMNIST(%d, %d) at GOMAXPROCS=%d: %v", level, n, size, p, err)
						}
						if err := sameBits(SynthCIFAR(n, size, 10, seed), cifar); err != nil {
							t.Errorf("%s: SynthCIFAR(%d, %d) at GOMAXPROCS=%d: %v", level, n, size, p, err)
						}
					})
				}
			})
		}
	}
}

// digest is the SHA-256 of a set's pixels (float32 bits, little endian)
// followed by its labels (uint64, little endian).
func digest(ds *Dataset) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range ds.X.Data {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
		h.Write(b[:4])
	}
	for _, l := range ds.Labels {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSynthDigests pins two sets, at every dispatch level, to digests
// taken from the serial generator with per-pixel math.Sin, math.Cos and
// math.Log on amd64, so the reference above cannot drift along with a
// change to renderDigit or stats.RNG.
func TestSynthDigests(t *testing.T) {
	forEachLevel(t, func(level string) {
		for _, p := range []int{1, 2} {
			withProcs(p, func() {
				if got, want := digest(SynthMNIST(4000, 16, 1)), "f4efcf68dd0cf7707a4d6786b18e91f073eb9fb7e46c4f9a114e6407bce1e059"; got != want {
					t.Errorf("%s: SynthMNIST(4000, 16, 1) at GOMAXPROCS=%d: sha256 %s, want %s", level, p, got, want)
				}
				if got, want := digest(SynthCIFAR(600, 12, 8, 13)), "f9d439d2dc6a53e384bb926c1252952c6e5d1303271b4423e29dc34edea82cf6"; got != want {
					t.Errorf("%s: SynthCIFAR(600, 12, 8, 13) at GOMAXPROCS=%d: sha256 %s, want %s", level, p, got, want)
				}
			})
		}
	})
}

// TestSynthZeroDrawRerenders: splitmix64 maps state 0 to 0, so seed
// −(k+1)·γ makes draw k exactly 0. Put it on the u of a Box-Muller pair in
// sample 150, inside a middle chunk at 3 and at 7 workers: the pair is
// redrawn, the stream after it shifts by one, that chunk ends one draw
// late, and the set is rendered again as one chunk, so it still equals the
// serial reference, whose later samples start one draw late too. The pair
// is the third of a group of four the fill's vector kernel takes, and the
// test runs at every dispatch level.
func TestSynthZeroDrawRerenders(t *testing.T) {
	const gamma, n, j = 0x9e3779b97f4a7c15, 301, 150
	cases := []struct {
		name   string
		a, b   int
		render func(seed uint64) *Dataset
		serial func(seed uint64) *Dataset
	}{
		{"SynthMNIST", 4, 16 * 16,
			func(s uint64) *Dataset { return SynthMNIST(n, 16, s) },
			func(s uint64) *Dataset { return serialSynthMNIST(n, 16, s) }},
		{"SynthCIFAR", 2, 3 * 13 * 13,
			func(s uint64) *Dataset { return SynthCIFAR(n, 13, 10, s) },
			func(s uint64) *Dataset { return serialSynthCIFAR(n, 13, 10, s) }},
	}
	forEachLevel(t, func(level string) {
		for _, c := range cases {
			// Sample j's new pairs start after its scalars; the u of the
			// eleventh is the draw to zero.
			k := uint64(c.a*j+(j*c.b+1)/2*2+c.a) + 20
			seed := -(k + 1) * gamma
			r := stats.NewRNG(seed)
			r.Skip(k)
			if r.Uint64() != 0 {
				t.Fatalf("%s: draw %d of seed %#x is not 0", c.name, k, seed)
			}
			want := c.serial(seed)
			for _, p := range []int{3, 7} {
				withProcs(p, func() {
					before := rerenders.Load()
					got := c.render(seed)
					if d := rerenders.Load() - before; d != 1 {
						t.Errorf("%s: %s at GOMAXPROCS=%d: rendered again %d times, want 1", level, c.name, p, d)
					}
					if err := sameBits(got, want); err != nil {
						t.Errorf("%s: %s at GOMAXPROCS=%d: %v", level, c.name, p, err)
					}
					// One draw later the zero is a v, which is not redrawn.
					before = rerenders.Load()
					c.render(seed + gamma)
					if rerenders.Load() != before {
						t.Errorf("%s: %s at GOMAXPROCS=%d: a zero v was rendered again", level, c.name, p)
					}
				})
			}
		}

	})
}

// TestSynthRefusesEmpty: an empty set or a degenerate image is refused
// with a dataset: message, not a panic from tensor.New.
func TestSynthRefusesEmpty(t *testing.T) {
	for name, f := range map[string]func(){
		"SynthMNIST n=0":       func() { SynthMNIST(0, 16, 1) },
		"SynthMNIST n=-3":      func() { SynthMNIST(-3, 16, 1) },
		"SynthCIFAR n=0":       func() { SynthCIFAR(0, 12, 10, 1) },
		"SynthCIFAR size=0":    func() { SynthCIFAR(10, 0, 10, 1) },
		"SynthCIFAR size=-1":   func() { SynthCIFAR(10, -1, 10, 1) },
		"SynthMNIST size=11":   func() { SynthMNIST(10, 11, 1) },
		"SynthCIFAR classes=1": func() { SynthCIFAR(10, 12, 1, 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dataset: ") {
					t.Errorf("%s: panic %q, want a dataset: message", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestTextureSinMatchesMath: SynthCIFAR takes its sines from
// stats.Sincos, which on amd64 is math.Sin and math.Cos bit for bit over
// every argument the renderer forms at these sizes and 32 classes (every
// orientation and frequency), for the smallest and largest phase and 16
// drawn ones, so the sets keep the bits they had with math.
func TestTextureSinMatchesMath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math on %s may fuse multiply-adds; amd64's bits are the reference", runtime.GOARCH)
	}
	r := stats.NewRNG(41)
	phases := []float64{0, math.Nextafter(6.283185307179586, 0)}
	for range 16 {
		phases = append(phases, r.Float64()*6.283185307179586)
	}
	for cls := range 32 {
		orient := float64(cls%8) * 0.3926990816987241
		sinO, cosO := stats.Sincos(orient)
		if sinO != math.Sin(orient) || cosO != math.Cos(orient) {
			t.Fatalf("class %d: Sincos(%v) = (%v, %v), math (%v, %v)", cls, orient, sinO, cosO, math.Sin(orient), math.Cos(orient))
		}
		freq := 1 + float64((cls/8)%4)
		for _, size := range []int{12, 13, 15, 16, 28, 32} {
			for y := range size {
				for x := range size {
					u := float64(x)/float64(size) - 0.5
					v := float64(y)/float64(size) - 0.5
					tt := float64(u*cosO) + float64(v*sinO)
					for _, phase := range phases {
						arg := float64(2*3.141592653589793*freq*tt*4) + phase
						if sin, _ := stats.Sincos(arg); math.Float64bits(sin) != math.Float64bits(math.Sin(arg)) {
							t.Fatalf("class %d, size %d, pixel (%d, %d): Sincos(%v) sine %v, math.Sin %v", cls, size, x, y, arg, sin, math.Sin(arg))
						}
					}
				}
			}
		}
	}
}
