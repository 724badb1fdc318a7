package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"adafl/internal/dataset"
	"adafl/internal/stats"
)

// digest is the SHA-256 of v's little-endian float64 bits.
func digest(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clientStepDigests runs what a client round computes and digests it: the
// model loads a float64 global off the float32 grid (SetParamVector), takes
// five SGD momentum steps on SynthMNIST batches of the given size from a
// dataset.Iterator, and reports its parameters (ParamVector) and its delta
// from the global (ParamDelta).
func clientStepDigests(m *Model, size int) (params, delta string) {
	global := m.ParamVector()
	r := stats.NewRNG(64)
	for i := range global {
		global[i] += r.NormScaled(0, 1e-3)
	}
	m.SetParamVector(global)
	it := dataset.NewIterator(dataset.SynthMNIST(70, size, 65), 16, stats.NewRNG(66))
	opt := NewSGD(0.05, 0.9, 0)
	for step := 0; step < 5; step++ { // 16+16+16+16+6: the last batch of the epoch is short
		x, labels := it.Next()
		m.ZeroGrads()
		m.TrainBatch(x, labels)
		opt.Step(m)
	}
	d := make([]float64, len(global))
	m.ParamDelta(d, global)
	return digest(m.ParamVector()), digest(d)
}

// TestClientStepBitsPinned pins what a client round computes to digests
// taken before the client step had vector kernels — the first three before
// the elementwise passes had them, VGGLite's before the conv lowering,
// the pooling and the 4×32 tile did — at every kernel dispatch level this
// CPU can run (tensor.SetKernelLevel). The passes covered: the im2col
// lowering and its col2im scatter (VGGLite and ResNetLite with padding,
// PaperCNN without), 2×2 max pooling, every GEMM variant, ReLU forward and
// backward, the residual block's sum-ReLU and SGD's velocity. A changed bit
// anywhere in them changes a digest.
func TestClientStepBitsPinned(t *testing.T) {
	cases := []struct {
		name          string
		model         func() *Model
		size          int
		params, delta string
	}{
		{"PaperCNN", func() *Model { return NewPaperCNN(stats.NewRNG(61)) }, 28,
			"87c9e9a8221a416a45c758e763159197f8a4a387d3ae5b318b93efe5a97f20e5",
			"3a064037f31cf0f4435b19a34e36aa149eae0f60c73aab4d5a0e4e13945f71c3"},
		{"ImageMLP", func() *Model { return NewImageMLP([]int{1, 28, 28}, []int{64}, 10, stats.NewRNG(62)) }, 28,
			"33f99b3ff9e2bb31d8dbee88c5470de198fc7ddfe192cf485db4e9077a1fe415",
			"dcb24b08d63f95a6aee9c673250440954ab0d1b05dee725d3320006bab782781"},
		{"ResNetLite", func() *Model { return NewResNetLite(1, 16, 10, stats.NewRNG(63)) }, 16,
			"1d5a67f02a1f76e1b3506c04db4992e27fa49011308081665d3b23df23eaf8d6",
			"33cc530d39a8070206eb070776351629c111aa1d465a4448e68301739db59ce0"},
		{"VGGLite", func() *Model { return NewVGGLite(1, 16, 10, stats.NewRNG(67)) }, 16,
			"b94ed22bfd75c2a38ebdbeb23574dcd64f72ee036f6ad8212567445901c9bbf1",
			"d398b9c05a03297dea75cfa0d3cc0fd88df8c16c8df083ecd741d150f6d685b2"},
	}
	forEachKernelLevel(t, func(level string) {
		for _, c := range cases {
			params, delta := clientStepDigests(c.model(), c.size)
			if params != c.params {
				t.Errorf("%s at %s: ParamVector digest %s, want %s", c.name, level, params, c.params)
			}
			if delta != c.delta {
				t.Errorf("%s at %s: ParamDelta digest %s, want %s", c.name, level, delta, c.delta)
			}
		}
	})
}
