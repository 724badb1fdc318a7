package nn

import (
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// trainingSmokeTest runs a few optimizer steps on random-but-learnable
// data and asserts the loss decreases — the cheapest end-to-end sanity
// check that a zoo architecture's backward pass is wired correctly.
func trainingSmokeTest(t *testing.T, m *Model, seed uint64) {
	t.Helper()
	r := stats.NewRNG(seed)
	batch := 8
	shape := append([]int{batch}, m.InputShape...)
	x := tensor.New(shape...)
	x.RandNorm(r, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % m.Classes
		// Plant a recoverable signal: bias the first pixels by the label.
		perSample := x.Size() / batch
		x.Data[i*perSample] += float64(labels[i])
	}
	opt := NewSGD(0.05, 0.9, 0)
	m.ZeroGrads()
	first := m.TrainBatch(x, labels)
	opt.Step(m)
	last := first
	for s := 0; s < 25; s++ {
		m.ZeroGrads()
		last = m.TrainBatch(x, labels)
		opt.Step(m)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestVGGLiteTrains(t *testing.T) {
	trainingSmokeTest(t, NewVGGLite(3, 8, 4, stats.NewRNG(1)), 2)
}

func TestResNetLiteTrains(t *testing.T) {
	trainingSmokeTest(t, NewResNetLite(3, 8, 4, stats.NewRNG(3)), 4)
}

func TestImageMLPTrains(t *testing.T) {
	trainingSmokeTest(t, NewImageMLP([]int{1, 6, 6}, []int{16}, 4, stats.NewRNG(7)), 8)
}

func TestPaperCNNTrainsOneStep(t *testing.T) {
	// One step on the full 431k model to confirm the real architecture's
	// gradients flow; kept to a single small batch for speed.
	m := NewPaperCNN(stats.NewRNG(9))
	r := stats.NewRNG(10)
	x := tensor.New(2, 1, 28, 28)
	x.RandNorm(r, 1)
	labels := []int{3, 7}
	opt := NewSGD(0.01, 0, 0)
	m.ZeroGrads()
	first := m.TrainBatch(x, labels)
	opt.Step(m)
	m.ZeroGrads()
	second := m.TrainBatch(x, labels)
	if second >= first {
		t.Fatalf("paper CNN loss did not decrease: %v -> %v", first, second)
	}
}
