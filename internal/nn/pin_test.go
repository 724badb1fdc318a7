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

// TestClientStepBitsPinned pins what a client round computes to digests
// taken before the elementwise passes had vector kernels: a model loads a
// float64 global off the float32 grid (SetParamVector), takes five SGD
// momentum steps on SynthMNIST batches from a dataset.Iterator (ReLU
// forward and backward, the residual block's sum-ReLU, SGD's velocity),
// and reports its parameters (ParamVector) and its delta from the global
// (ParamDelta). A changed bit anywhere in those passes changes a digest.
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
	}
	for _, c := range cases {
		m := c.model()
		global := m.ParamVector()
		r := stats.NewRNG(64)
		for i := range global {
			global[i] += r.NormScaled(0, 1e-3)
		}
		m.SetParamVector(global)
		it := dataset.NewIterator(dataset.SynthMNIST(70, c.size, 65), 16, stats.NewRNG(66))
		opt := NewSGD(0.05, 0.9, 0)
		for step := 0; step < 5; step++ { // 16+16+16+16+6: the last batch of the epoch is short
			x, labels := it.Next()
			m.ZeroGrads()
			m.TrainBatch(x, labels)
			opt.Step(m)
		}
		delta := make([]float64, len(global))
		m.ParamDelta(delta, global)
		if got := digest(m.ParamVector()); got != c.params {
			t.Errorf("%s: ParamVector digest %s, want %s", c.name, got, c.params)
		}
		if got := digest(delta); got != c.delta {
			t.Errorf("%s: ParamDelta digest %s, want %s", c.name, got, c.delta)
		}
	}
}
