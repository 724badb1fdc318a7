package nn

import (
	"math"

	"adafl/internal/tensor"
)

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

// Step applies one update from the model's accumulated gradients and leaves
// the gradients untouched (callers zero them). It updates every parameter
// tensor in place from its gradient tensor; velocity is one flat vector in
// ParamVector order, indexed by the running offset, so no flat copy of the
// model is made.
func (s *SGD) Step(m *Model) {
	if s.Momentum != 0 && s.velocity == nil {
		s.velocity = make([]float64, m.NumParams())
	}
	off := 0
	for _, l := range m.Layers {
		grads := l.Grads()
		for t, p := range l.Params() {
			var vel []float64
			if s.Momentum != 0 {
				vel = s.velocity[off : off+len(p.Data)]
			}
			s.update(p.Data, grads[t].Data[:len(p.Data)], vel)
			off += len(p.Data)
		}
	}
}

// update is Step on one tensor: g += wd·p; v = m·v + g; p -= lr·v. Whether
// weight decay and momentum apply does not change inside a tensor, so each
// combination has its own element loop.
//
// A new velocity in the subnormal range is flushed to zero
// (tensor.FlushSubnormal). A coordinate whose gradient is exactly 0 from
// some step on (a dead ReLU row) decays its velocity by m per step until
// it goes subnormal — after ≈ 6 600 steps at m = 0.9 — and would stay
// there, slow, on every later step until it reached zero by itself. lr
// times a subnormal moves no parameter that is not itself below 2⁻⁹⁶⁹.
func (s *SGD) update(params, grads, vel []float64) {
	lr, mom, wd := s.LR, s.Momentum, s.WeightDecay
	params = params[:len(grads)]
	if mom != 0 {
		vel = vel[:len(grads)]
	}
	switch {
	case mom != 0 && wd != 0:
		for i, g := range grads {
			g += wd * params[i]
			g = tensor.FlushSubnormal(mom*vel[i] + g)
			vel[i] = g
			params[i] -= lr * g
		}
	case mom != 0:
		for i, g := range grads {
			g = tensor.FlushSubnormal(mom*vel[i] + g)
			vel[i] = g
			params[i] -= lr * g
		}
	case wd != 0:
		for i, g := range grads {
			g += wd * params[i]
			params[i] -= lr * g
		}
	default:
		for i, g := range grads {
			params[i] -= lr * g
		}
	}
}

// Adam is the adaptive-moment update rule the server side of FedAdam
// applies to its pseudo-gradient (DirectionVec).
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
