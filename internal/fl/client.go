package fl

import (
	"adafl/internal/compress"
	"adafl/internal/dataset"
	"adafl/internal/device"
	"adafl/internal/nn"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// TrainConfig holds the local-training hyperparameters shared by all
// algorithms, plus the per-algorithm correction switches.
type TrainConfig struct {
	// LocalSteps is the number of mini-batch SGD steps per round.
	LocalSteps int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LR and Momentum configure the client SGD optimizer.
	LR, Momentum float64
	// ProxMu, when nonzero, adds FedProx's proximal term
	// (µ/2)‖w − w_global‖² to the local objective.
	ProxMu float64
	// Scaffold enables SCAFFOLD control-variate correction. The control
	// variate c_i⁺ = c_i − c + (w_global − w_local)/(K·η) is derived for
	// plain SGD; run SCAFFOLD clients with Momentum 0 or the variates
	// overestimate the local gradient by ~1/(1−m) and training diverges.
	Scaffold bool
}

// Validate panics on unusable configurations.
func (c TrainConfig) Validate() {
	if c.LocalSteps <= 0 || c.BatchSize <= 0 || c.LR <= 0 {
		panic("fl: TrainConfig needs positive LocalSteps, BatchSize and LR")
	}
	if c.ProxMu != 0 && c.Scaffold {
		panic("fl: FedProx and SCAFFOLD corrections are mutually exclusive")
	}
}

// Client is one federated participant: a data shard, a local model and
// optimizer state, a device profile, and an uplink codec.
type Client struct {
	ID     int
	Data   *dataset.Dataset
	Model  *nn.Model
	Cfg    TrainConfig
	Device device.Profile
	// Codec compresses the uplink delta; Identity by default.
	Codec compress.Codec

	// Ctrl is the SCAFFOLD client control variate c_i (lazily allocated).
	Ctrl []float64
	// LastDelta caches the most recent raw local delta; AdaFL's utility
	// score compares it against the previous global delta.
	LastDelta []float64

	iter *dataset.Iterator
	opt  *nn.SGD
	rng  *stats.RNG
}

// NewClient constructs a client with its own optimizer and batch iterator.
func NewClient(id int, data *dataset.Dataset, model *nn.Model, cfg TrainConfig,
	dev device.Profile, rng *stats.RNG) *Client {
	cfg.Validate()
	c := &Client{
		ID: id, Data: data, Model: model, Cfg: cfg, Device: dev,
		Codec: compress.Identity{}, rng: rng,
	}
	c.opt = nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	if data.Len() > 0 {
		c.iter = dataset.NewIterator(data, cfg.BatchSize, rng.Split())
	}
	return c
}

// TrainRound loads the global parameters, runs LocalSteps of mini-batch
// SGD (with the configured FedProx/SCAFFOLD corrections), and returns the
// raw model delta Δ = w_local − w_global, with w_global as the float32
// model loaded it (nn.Model.ParamDelta). scaffoldC is the server control
// variate (nil unless Cfg.Scaffold). The delta is also cached in LastDelta.
//
// The returned ctrlDelta is SCAFFOLD's c_iⁿᵉʷ − c_i (nil otherwise); the
// client's own control variate is updated in place.
func (c *Client) TrainRound(global []float64, scaffoldC []float64) (delta, ctrlDelta []float64) {
	if c.iter == nil {
		// A dataless client contributes nothing.
		zero := make([]float64, len(global))
		c.LastDelta = zero
		return zero, nil
	}
	c.Model.SetParamVector(global)
	// Cfg is mutable between rounds (experiments flip ProxMu/Scaffold/LR
	// after construction); keep the optimizer in sync.
	c.opt.LR = c.Cfg.LR
	c.opt.Momentum = c.Cfg.Momentum
	if c.Cfg.Scaffold && c.Ctrl == nil {
		c.Ctrl = make([]float64, len(global))
	}
	steps := c.Cfg.LocalSteps
	for s := 0; s < steps; s++ {
		x, labels := c.iter.Next()
		c.Model.ZeroGrads()
		c.Model.TrainBatch(x, labels)
		if c.Cfg.ProxMu != 0 {
			c.applyProxCorrection(global)
		}
		if c.Cfg.Scaffold {
			c.applyScaffoldCorrection(scaffoldC)
		}
		c.opt.Step(c.Model)
	}
	delta = make([]float64, len(global))
	c.Model.ParamDelta(delta, global)
	c.LastDelta = delta

	if c.Cfg.Scaffold {
		// c_i⁺ = c_i − c + (w_global − w_local)/(K·η)  (SCAFFOLD option II)
		ctrlDelta = make([]float64, len(global))
		scale := 1 / (float64(steps) * c.Cfg.LR)
		for i := range ctrlDelta {
			newCi := c.Ctrl[i] - scaffoldC[i] - delta[i]*scale
			ctrlDelta[i] = newCi - c.Ctrl[i]
			c.Ctrl[i] = newCi
		}
	}
	return delta, ctrlDelta
}

// applyProxCorrection adds µ(w − w_global) to the accumulated gradients,
// with w_global as the model loaded it, so the term starts at exactly 0.
func (c *Client) applyProxCorrection(global []float64) {
	moved := make([]float64, len(global))
	c.Model.ParamDelta(moved, global)
	grads := c.Model.GradVector()
	for i := range grads {
		grads[i] += c.Cfg.ProxMu * moved[i]
	}
	c.setGradVector(grads)
}

// applyScaffoldCorrection adds (c − c_i) to the accumulated gradients.
func (c *Client) applyScaffoldCorrection(serverC []float64) {
	grads := c.Model.GradVector()
	for i := range grads {
		grads[i] += serverC[i] - c.Ctrl[i]
	}
	c.setGradVector(grads)
}

// setGradVector writes a flat gradient vector back into the model's
// gradient tensors (the inverse of GradVector).
func (c *Client) setGradVector(v []float64) {
	off := 0
	for _, l := range c.Model.Layers {
		for _, g := range l.Grads() {
			tensor.Narrow(g.Data, v[off:off+len(g.Data)])
			off += len(g.Data)
		}
	}
}

// ComputeSeconds returns the simulated duration of one local round on this
// client's device.
func (c *Client) ComputeSeconds() float64 {
	samples := c.Cfg.LocalSteps * c.Cfg.BatchSize
	if c.Data.Len() == 0 {
		return 0
	}
	return c.Device.TrainSeconds(c.Model.FLOPsPerSample(), samples)
}

// EncodeDelta compresses a raw delta at the requested ratio using the
// client's codec.
func (c *Client) EncodeDelta(delta []float64, ratio float64) *compress.Sparse {
	return c.Codec.Encode(delta, ratio)
}
