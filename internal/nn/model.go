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
//
// The model's parameters live in one float32 arena, in ParamVector's
// order, and every layer's parameter tensor is a view into it: the model
// is one flat vector (Params32) as well as its layers' tensors.
type Model struct {
	Layers []Layer
	// InputShape is the per-sample input shape (without the batch
	// dimension), e.g. [1, 28, 28] for the paper CNN.
	InputShape []int
	Classes    int

	// params is the arena every parameter tensor's Data is a view of.
	params []float32

	// lossGrad is the reused logit-gradient buffer of TrainBatch. Training
	// is single-threaded per model, so one scratch tensor suffices.
	lossGrad *tensor.Tensor
}

// viewBinder is implemented by layers that cache views of their parameter
// tensors' Data: NewModel calls bindViews once it has moved the tensors
// into the arena, so no view is left on the storage they were built in.
type viewBinder interface {
	bindViews()
}

// NewModel wraps layers into a model. inputShape is the per-sample shape.
// It moves every parameter tensor's values into the model's arena, so the
// layers belong to this model alone.
func NewModel(inputShape []int, classes int, layers ...Layer) *Model {
	m := &Model{Layers: layers, InputShape: append([]int(nil), inputShape...), Classes: classes}
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += len(p.Data)
		}
	}
	m.params = make([]float32, n)
	off := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			end := off + copy(m.params[off:], p.Data)
			p.Data = m.params[off:end:end]
			off = end
		}
		if b, ok := l.(viewBinder); ok {
			b.bindViews()
		}
	}
	return m
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
func (m *Model) NumParams() int { return len(m.params) }

// Params32 returns the model's parameters as the arena holds them, in
// ParamVector's order: the model itself, not a copy, so it changes as the
// model trains.
func (m *Model) Params32() []float32 { return m.params }

// ParamVector flattens all trainable parameters into a single vector in
// deterministic layer order. The model holds float32; the vector is the
// float64 currency of the federated layer above, and converting up is
// exact.
func (m *Model) ParamVector() []float64 {
	out := make([]float64, len(m.params))
	tensor.Widen(out, m.params)
	return out
}

// SetParamVector loads a flat vector produced by ParamVector back into the
// model's parameter tensors, rounding each value to the nearest float32.
// It panics on length mismatch, before writing anything.
func (m *Model) SetParamVector(v []float64) {
	if n := m.NumParams(); len(v) != n {
		panic(fmt.Sprintf("nn: parameter vector length %d, model has %d", len(v), n))
	}
	tensor.Narrow(m.params, v)
}

// ParamDelta writes the model's parameters minus start into dst (length
// NumParams), with start taken at the precision the model holds it:
// float64(float32(start[i])), the value SetParamVector(start) loaded. A
// client that trained from start uploads only what training moved, not
// start's float32 rounding residue; and start's float32 values plus the
// delta reproduce ParamVector() exactly: the difference of two float32s
// within a factor 2²⁹ of each other is exact in float64.
func (m *Model) ParamDelta(dst, start []float64) {
	if len(dst) != len(start) || len(dst) != m.NumParams() {
		panic(fmt.Sprintf("nn: delta of length %d from a start of length %d, model has %d", len(dst), len(start), m.NumParams()))
	}
	tensor.SubNarrowed(dst, m.params, start)
}

// SetParams32 loads v, the float32 parameters of a model broadcast in
// ParamVector's order, into the model's parameter tensors as they are.
// It panics on length mismatch, before writing anything.
func (m *Model) SetParams32(v []float32) {
	if n := m.NumParams(); len(v) != n {
		panic(fmt.Sprintf("nn: parameter vector length %d, model has %d", len(v), n))
	}
	copy(m.params, v)
}

// GradVector flattens all accumulated gradients into a single vector
// aligned with ParamVector.
func (m *Model) GradVector() []float64 {
	out := make([]float64, m.NumParams())
	off := 0
	for _, l := range m.Layers {
		for _, g := range l.Grads() {
			tensor.Widen(out[off:off+len(g.Data)], g.Data)
			off += len(g.Data)
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

// FLOPsPerSample returns the multiply-accumulate count of one forward pass
// over a single sample of InputShape, the shape walked through the layers
// (sampleCoster), so it does not depend on what the model has run. The
// device model charges the backward pass as a fixed multiple of it.
func (m *Model) FLOPsPerSample() float64 {
	total, shape := 0.0, m.InputShape
	for _, l := range m.Layers {
		if c, ok := l.(sampleCoster); ok {
			var flops float64
			flops, shape = c.sampleCost(shape)
			total += flops
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
				p := partial{loss: crossEntropyLoss(logits, labels[start:end]) * float64(end-start)}
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
