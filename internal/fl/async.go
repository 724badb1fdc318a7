package fl

import (
	"adafl/internal/compress"
	"adafl/internal/netsim"
	"adafl/internal/tensor"
)

// AsyncGate is consulted after a client finishes local training, before it
// uploads. It can suppress the upload (the client idles and re-downloads
// later) and chooses the compression ratio. AdaFL's utility gating
// implements this; the baselines use AlwaysUpload.
type AsyncGate interface {
	Decide(e *AsyncEngine, client int, delta []float64) (upload bool, ratio float64)
}

// AlwaysUpload is the baseline gate: every update is transmitted densely.
type AlwaysUpload struct{}

// Decide implements AsyncGate.
func (AlwaysUpload) Decide(*AsyncEngine, int, []float64) (bool, float64) { return true, 1 }

// AsyncEngine runs the asynchronous protocol as a discrete-event
// simulation: each client independently cycles download → train → upload,
// and the server processes arrivals one at a time through an AsyncStrategy
// (FedAsync mixing, FedBuff buffering, or AdaFL's fully-async apply).
type AsyncEngine struct {
	Fed   *Federation
	Strat AsyncStrategy
	Gate  AsyncGate

	// Global is the flat global parameter vector; Version counts applied
	// global model advances.
	Global  []float64
	Version int
	// LastGlobalDelta is ĝ for utility scoring, updated on each advance.
	LastGlobalDelta []float64
	Weights         []float64
	ClientUpdates   []int
	Hist            History

	// Inactive marks clients that never run (async dropout experiments:
	// clients whose bandwidth can never deliver an update).
	Inactive map[int]bool

	// EvalInterval evaluates the global model every so many simulated
	// seconds (default 1.0).
	EvalInterval float64
	// SkipIdle is how long a gated-off client waits before re-downloading.
	SkipIdle float64

	queue      *netsim.EventQueue
	downloaded [][]float64 // per-client global snapshot at download
	downVer    []int       // per-client Version at download
	upBytes    int64
	downBytes  int64
	updates    int // updates received by the server
	staleSum   int
	deadline   float64
}

// NewAsyncEngine builds an asynchronous engine over the federation.
func NewAsyncEngine(fed *Federation, strat AsyncStrategy, gate AsyncGate) *AsyncEngine {
	global := fed.NewModel().ParamVector()
	n := len(fed.Clients)
	return &AsyncEngine{
		Fed: fed, Strat: strat, Gate: gate,
		Global:          global,
		LastGlobalDelta: make([]float64, len(global)),
		Weights:         fed.Weights(),
		ClientUpdates:   make([]int, n),
		EvalInterval:    1,
		SkipIdle:        0.5,
		queue:           netsim.NewEventQueue(),
		downloaded:      make([][]float64, n),
		downVer:         make([]int, n),
	}
}

// Now returns the simulated time.
func (e *AsyncEngine) Now() float64 { return e.queue.Now() }

// TotalUplinkBytes returns cumulative uplink volume.
func (e *AsyncEngine) TotalUplinkBytes() int64 { return e.upBytes }

// TotalUpdates returns the number of updates the server received.
func (e *AsyncEngine) TotalUpdates() int { return e.updates }

// Run simulates until the given simulated-time horizon.
func (e *AsyncEngine) Run(horizon float64) {
	e.deadline = horizon
	for i := range e.Fed.Clients {
		if e.Inactive[i] {
			continue
		}
		e.startCycle(i, 0)
	}
	for t := e.EvalInterval; t <= horizon; t += e.EvalInterval {
		at := t
		e.queue.Schedule(at, func() { e.evaluate(at) })
	}
	e.queue.RunUntil(horizon)
}

// startCycle begins a client's download at time t.
func (e *AsyncEngine) startCycle(client int, t float64) {
	if t > e.deadline {
		return
	}
	dim := len(e.Global)
	dlDur, dlLost := e.Fed.Net.Transfer(client, netsim.Downlink, compress.DenseBytes(dim), t)
	e.downBytes += int64(compress.DenseBytes(dim))
	if dlLost {
		// The model never arrived; retry after the wasted transfer time.
		e.queue.Schedule(t+dlDur+e.SkipIdle, func() { e.startCycle(client, e.queue.Now()) })
		return
	}
	e.queue.Schedule(t+dlDur, func() { e.onDownloaded(client) })
}

// onDownloaded snapshots the global model for the client and schedules the
// end of its local training.
func (e *AsyncEngine) onDownloaded(client int) {
	c := e.Fed.Clients[client]
	e.downloaded[client] = tensor.CopyVec(e.Global)
	e.downVer[client] = e.Version
	compDur := c.ComputeSeconds()
	e.queue.Schedule(e.queue.Now()+compDur, func() { e.onTrained(client) })
}

// onTrained runs the actual local training, consults the gate, and either
// uploads or idles.
func (e *AsyncEngine) onTrained(client int) {
	c := e.Fed.Clients[client]
	delta, _ := c.TrainRound(e.downloaded[client], nil)
	now := e.queue.Now()
	upload, ratio := e.Gate.Decide(e, client, delta)
	if !upload {
		e.queue.Schedule(now+e.SkipIdle, func() { e.startCycle(client, e.queue.Now()) })
		return
	}
	msg := c.EncodeDelta(delta, ratio)
	ulDur, ulLost := e.Fed.Net.Transfer(client, netsim.Uplink, msg.WireBytes(), now)
	e.upBytes += int64(msg.WireBytes())
	staleAt := e.downVer[client]
	if !ulLost {
		e.queue.Schedule(now+ulDur, func() { e.onReceive(client, msg, staleAt) })
	}
	// The client is busy until its upload finishes either way.
	e.queue.Schedule(now+ulDur, func() { e.startCycle(client, e.queue.Now()) })
}

// onReceive applies one arriving update at the server.
func (e *AsyncEngine) onReceive(client int, msg *compress.Sparse, downloadVersion int) {
	e.updates++
	e.ClientUpdates[client]++
	u := Update{
		Client:    client,
		Delta:     msg,
		Weight:    e.Weights[client],
		Staleness: e.Version - downloadVersion,
	}
	e.staleSum += u.Staleness
	before := tensor.CopyVec(e.Global)
	advanced := e.Strat.OnReceive(e.Global, e.downloaded[client], u)
	if advanced {
		e.Version++
		tensor.SubVec(e.LastGlobalDelta, e.Global, before)
	}
}

// evaluate records a history row at simulated time t.
func (e *AsyncEngine) evaluate(t float64) {
	acc, loss := e.Fed.Evaluate(e.Global)
	e.Hist.Add(RoundStats{
		Round: e.Version, Time: t,
		TestAcc: acc, TestLoss: loss,
		Received:    e.updates,
		UplinkBytes: e.upBytes, DownlinkBytes: e.downBytes,
		Updates: e.updates,
	})
}

// MeanStaleness returns the average staleness of the updates the server
// received so far.
func (e *AsyncEngine) MeanStaleness() float64 {
	if e.updates == 0 {
		return 0
	}
	return float64(e.staleSum) / float64(e.updates)
}
