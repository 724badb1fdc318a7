package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adafl/internal/tensor"
)

// Model is a sequential stack of layers with flat parameter/gradient vector
// views, which is the interface the federated-learning layer consumes.
type Model struct {
	Layers []Layer
	// InputShape is the per-sample input shape (without the batch
	// dimension), e.g. [1, 28, 28] for the paper CNN.
	InputShape []int
	Classes    int

	// lossGrad is the reused logit-gradient buffer of TrainBatch. Training
	// is single-threaded per model, so one scratch tensor suffices.
	lossGrad *tensor.Tensor
}

// NewModel wraps layers into a model. inputShape is the per-sample shape.
func NewModel(inputShape []int, classes int, layers ...Layer) *Model {
	return &Model{Layers: layers, InputShape: append([]int(nil), inputShape...), Classes: classes}
}

// Forward runs a batch through all layers and returns the logits.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// paramsOnlyBackward is implemented by layers that can accumulate their
// parameter gradients without computing the gradient of their input.
type paramsOnlyBackward interface {
	backwardParams(gradOut *tensor.Tensor)
}

// Backward propagates the loss gradient back through the layers,
// accumulating parameter gradients. Nobody reads the gradient of the model
// input, so the pass stops at the first layer that has parameters and asks
// it for its parameter gradients only, when it can tell the two apart.
func (m *Model) Backward(grad *tensor.Tensor) {
	first := 0
	for first < len(m.Layers) && len(m.Layers[first].Params()) == 0 {
		first++
	}
	for i := len(m.Layers) - 1; i >= first; i-- {
		if i == first {
			if l, ok := m.Layers[i].(paramsOnlyBackward); ok {
				l.backwardParams(grad)
				return
			}
		}
		grad = m.Layers[i].Backward(grad)
	}
}

// TrainBatch performs one forward/backward pass on (x, labels), leaving the
// accumulated gradients in the model, and returns the batch loss.
// Callers are responsible for zeroing gradients between steps.
func (m *Model) TrainBatch(x *tensor.Tensor, labels []int) float64 {
	logits := m.Forward(x, true)
	m.lossGrad = ensureTensor(m.lossGrad, logits.Dim(0), logits.Dim(1))
	loss := SoftmaxCrossEntropyInto(m.lossGrad, logits, labels)
	m.Backward(m.lossGrad)
	return loss
}

// NumParams returns the total number of trainable scalars.
func (m *Model) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		for _, p := range l.Params() {
			n += p.Size()
		}
	}
	return n
}

// ParamVector flattens all trainable parameters into a single vector in
// deterministic layer order.
func (m *Model) ParamVector() []float64 {
	out := make([]float64, 0, m.NumParams())
	for _, l := range m.Layers {
		for _, p := range l.Params() {
			out = append(out, p.Data...)
		}
	}
	return out
}

// SetParamVector loads a flat vector produced by ParamVector back into the
// model's parameter tensors. It panics on length mismatch.
func (m *Model) SetParamVector(v []float64) {
	off := 0
	for _, l := range m.Layers {
		for _, p := range l.Params() {
			n := copy(p.Data, v[off:off+p.Size()])
			off += n
		}
	}
	if off != len(v) {
		panic(fmt.Sprintf("nn: parameter vector length %d, model has %d", len(v), off))
	}
}

// GradVector flattens all accumulated gradients into a single vector
// aligned with ParamVector.
func (m *Model) GradVector() []float64 {
	out := make([]float64, 0, m.NumParams())
	for _, l := range m.Layers {
		for _, g := range l.Grads() {
			out = append(out, g.Data...)
		}
	}
	return out
}

// ZeroGrads clears all accumulated gradients.
func (m *Model) ZeroGrads() {
	for _, l := range m.Layers {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
}

// FLOPsPerSample sums the cost estimates of all counting layers.
func (m *Model) FLOPsPerSample() float64 {
	total := 0.0
	for _, l := range m.Layers {
		if fc, ok := l.(FLOPCounter); ok {
			total += fc.FLOPsPerSample()
		}
	}
	return total
}

// EvaluateBatched computes accuracy and mean loss over (x, labels) in
// batches of batchSize. Batches are evaluated in parallel across CPUs —
// evaluation-mode forward passes touch no layer state — and reduced in
// deterministic batch order.
func (m *Model) EvaluateBatched(x *tensor.Tensor, labels []int, batchSize int) (acc, loss float64) {
	n := x.Dim(0)
	if n == 0 {
		return 0, 0
	}
	if batchSize <= 0 {
		batchSize = n
	}
	perSample := x.Size() / n
	numBatches := (n + batchSize - 1) / batchSize
	type partial struct {
		correct int
		loss    float64
	}
	partials := make([]partial, numBatches)

	workers := runtime.GOMAXPROCS(0)
	if workers > numBatches {
		workers = numBatches
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(atomic.AddInt64(&next, 1))
				if b >= numBatches {
					return
				}
				start := b * batchSize
				end := min(start+batchSize, n)
				shape := append([]int{end - start}, m.InputShape...)
				batch := tensor.FromSlice(x.Data[start*perSample:end*perSample], shape...)
				logits := m.Forward(batch, false)
				l, _ := SoftmaxCrossEntropy(logits, labels[start:end])
				p := partial{loss: l * float64(end-start)}
				for i, pred := range Predict(logits) {
					if pred == labels[start+i] {
						p.correct++
					}
				}
				partials[b] = p
			}
		}()
	}
	wg.Wait()

	correct := 0
	totalLoss := 0.0
	for _, p := range partials {
		correct += p.correct
		totalLoss += p.loss
	}
	return float64(correct) / float64(n), totalLoss / float64(n)
}
