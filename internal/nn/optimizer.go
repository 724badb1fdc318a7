package nn

import "math"

// Optimizer updates a model's parameters from its accumulated gradients.
type Optimizer interface {
	// Step applies one update using the model's current gradients and then
	// leaves the gradients untouched (callers zero them).
	Step(m *Model)
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay — the client-side optimizer throughout the paper's experiments.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step implements Optimizer. It updates every parameter tensor in place from
// its gradient tensor; velocity is one flat vector in ParamVector order,
// indexed by the running offset, so no flat copy of the model is made.
func (s *SGD) Step(m *Model) {
	lr, mom, wd := s.LR, s.Momentum, s.WeightDecay
	if mom != 0 && s.velocity == nil {
		s.velocity = make([]float64, m.NumParams())
	}
	off := 0
	for _, l := range m.Layers {
		grads := l.Grads()
		for t, p := range l.Params() {
			params := p.Data
			var vel []float64
			if mom != 0 {
				vel = s.velocity[off : off+len(params)]
			}
			for i, g := range grads[t].Data[:len(params)] {
				if wd != 0 {
					g += wd * params[i]
				}
				if mom != 0 {
					g = mom*vel[i] + g
					vel[i] = g
				}
				params[i] -= lr * g
			}
			off += len(params)
		}
	}
}

// Adam is the adaptive-moment optimizer; the server side of FedAdam uses
// the same vector-space update via AdamVec.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	mVec []float64
	vVec []float64
}

// NewAdam returns an Adam optimizer with the usual defaults for zero
// hyperparameters (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr, beta1, beta2, eps float64) *Adam {
	if beta1 == 0 {
		beta1 = 0.9
	}
	if beta2 == 0 {
		beta2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	return &Adam{LR: lr, Beta1: beta1, Beta2: beta2, Eps: eps}
}

// Step implements Optimizer.
func (a *Adam) Step(m *Model) {
	params := m.ParamVector()
	grad := m.GradVector()
	step := a.DirectionVec(grad)
	for i := range params {
		params[i] += step[i]
	}
	m.SetParamVector(params)
}

// DirectionVec returns the Adam parameter delta (already multiplied by the
// learning rate and negated for descent) for a raw gradient vector. This is
// the form server-side adaptive aggregation (FedAdam) consumes: it treats
// the average client delta as a pseudo-gradient.
func (a *Adam) DirectionVec(grad []float64) []float64 {
	if a.mVec == nil {
		a.mVec = make([]float64, len(grad))
		a.vVec = make([]float64, len(grad))
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	out := make([]float64, len(grad))
	for i, g := range grad {
		a.mVec[i] = a.Beta1*a.mVec[i] + (1-a.Beta1)*g
		a.vVec[i] = a.Beta2*a.vVec[i] + (1-a.Beta2)*g*g
		mHat := a.mVec[i] / bc1
		vHat := a.vVec[i] / bc2
		out[i] = -a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
	return out
}
