package fl

import (
	"math"
	"runtime"
	"sync"

	"adafl/internal/compress"
	"adafl/internal/netsim"
	"adafl/internal/obs"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// RoundPlanner decides, at the start of each synchronous round, which
// clients participate and at what uplink compression ratio. AdaFL's
// adaptive node selection implements this interface (internal/core); the
// baselines use FixedRatePlanner.
type RoundPlanner interface {
	Plan(round int, e *SyncEngine) []Participation
}

// SyncEngine runs the synchronous protocol: every round the server pushes
// the global model to the planned participants, waits for their updates
// subject to a maximum wait time (late or lost updates are dropped, as in
// §III-A), aggregates, and advances the simulated clock by the round
// duration T_sync = max_i(Ψ_i + Υ_i^u + Υ_i^d).
type SyncEngine struct {
	Fed     *Federation
	Agg     Aggregator
	Planner RoundPlanner
	// MaxWait is the server's round deadline in seconds; 0 means the
	// server waits for the slowest participant.
	MaxWait float64
	// EvalEvery evaluates the global model every k rounds (default 1).
	EvalEvery int
	// Metrics, when non-nil, receives per-round gauges (accuracy,
	// participant counts, cumulative bytes). Nil disables metrics.
	Metrics *obs.Registry
	// OnUpload, when non-nil, observes each accepted upload's (client,
	// wire bytes) in plan order — the codec negotiator's deterministic
	// byte-history feed.
	OnUpload func(client, bytes int)

	// Global is the flat global parameter vector.
	Global []float64
	// LastGlobalDelta is ĝ, the aggregate movement of the global model in
	// the previous round — the reference vector for utility scores.
	LastGlobalDelta []float64
	// Weights caches the data-proportion weights n_i/n.
	Weights []float64
	// ClientUpdates counts accepted updates per client.
	ClientUpdates []int
	// Hist accumulates per-round statistics.
	Hist History

	round              int
	now                float64
	upBytes, downBytes int64
	updates            int
	rng                *stats.RNG
}

// NewSyncEngine initialises the global model from the federation's model
// factory and returns a ready engine.
func NewSyncEngine(fed *Federation, agg Aggregator, planner RoundPlanner, seed uint64) *SyncEngine {
	global := fed.NewModel().ParamVector()
	return &SyncEngine{
		Fed: fed, Agg: agg, Planner: planner, EvalEvery: 1,
		Global:          global,
		LastGlobalDelta: make([]float64, len(global)),
		Weights:         fed.Weights(),
		ClientUpdates:   make([]int, len(fed.Clients)),
		rng:             stats.NewRNG(seed),
	}
}

// Round returns the index of the next round to run.
func (e *SyncEngine) Round() int { return e.round }

// Now returns the simulated time.
func (e *SyncEngine) Now() float64 { return e.now }

// TotalUplinkBytes returns cumulative uplink volume.
func (e *SyncEngine) TotalUplinkBytes() int64 { return e.upBytes }

// TotalUpdates returns the number of accepted client updates.
func (e *SyncEngine) TotalUpdates() int { return e.updates }

// RunRounds executes n rounds.
func (e *SyncEngine) RunRounds(n int) {
	for i := 0; i < n; i++ {
		e.RunRound()
	}
}

// RunRound executes one synchronous round.
func (e *SyncEngine) RunRound() {
	parts := e.Planner.Plan(e.round, e)
	dim := len(e.Global)

	var scaffC []float64
	if sc, ok := e.Agg.(*Scaffold); ok {
		scaffC = sc.C(dim)
	}

	// Phase 1 (parallel): every planned client's round is independent —
	// its own model, optimizer, codec and RNG streams — so it fans out
	// across CPUs. Results are reduced in plan order below, so the round is
	// bit-identical to a serial execution.
	type clientResult struct {
		ulBytes        int
		dlLost, ulLost bool
		total          float64
		msg            *compress.Sparse
		ctrl           []float64
	}
	results := make([]clientResult, len(parts))
	dlBytes := compress.DenseBytes(dim)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range parts {
		i, p := i, p
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r := &results[i]
			c := e.Fed.Clients[p.Client]
			var dlDur float64
			dlDur, r.dlLost = e.Fed.Net.Transfer(c.ID, netsim.Downlink, dlBytes, e.now)
			if r.dlLost {
				return
			}
			delta, ctrl := c.TrainRound(e.Global, scaffC)
			r.ctrl = ctrl
			if p.Codec != nil {
				r.msg = p.Codec.Encode(delta, p.Ratio)
			} else {
				r.msg = c.EncodeDelta(delta, p.Ratio)
			}
			r.ulBytes = r.msg.WireBytes()
			var ulDur float64
			ulDur, r.ulLost = e.Fed.Net.Transfer(c.ID, netsim.Uplink, r.ulBytes, e.now)
			r.total = dlDur + c.ComputeSeconds() + ulDur
		}()
	}
	wg.Wait()

	// Phase 2 (serial, plan order): deadlines, byte accounting, update set.
	var updates []Update
	roundDur := 0.0
	deadlineHit := false
	for i, p := range parts {
		r := &results[i]
		e.downBytes += int64(dlBytes)
		if r.dlLost {
			deadlineHit = true
			continue
		}
		e.upBytes += int64(r.ulBytes) // bandwidth is spent even on loss
		if r.ulLost {
			deadlineHit = true
			continue
		}
		if e.MaxWait > 0 && r.total > e.MaxWait {
			deadlineHit = true // server stops waiting; update dropped
			continue
		}
		if r.total > roundDur {
			roundDur = r.total
		}
		u := Update{Client: p.Client, Delta: r.msg, Weight: e.Weights[p.Client], CtrlDelta: r.ctrl}
		if r.ctrl != nil {
			// SCAFFOLD ships the control-variate delta too: double uplink.
			e.upBytes += int64(compress.DenseBytes(dim))
		}
		updates = append(updates, u)
		e.ClientUpdates[p.Client]++
		e.updates++
		if e.OnUpload != nil {
			e.OnUpload(p.Client, r.ulBytes)
		}
	}
	if deadlineHit && e.MaxWait > 0 && e.MaxWait > roundDur {
		roundDur = e.MaxWait
	}

	before := tensor.CopyVec(e.Global)
	e.Agg.Apply(e.Global, updates)
	tensor.SubVec(e.LastGlobalDelta, e.Global, before)

	e.now += roundDur
	e.round++

	row := RoundStats{
		Round: e.round, Time: e.now,
		TestAcc: math.NaN(), TestLoss: math.NaN(),
		Participants: len(parts), Received: len(updates),
		UplinkBytes: e.upBytes, DownlinkBytes: e.downBytes,
		Updates: e.updates,
	}
	if e.EvalEvery > 0 && e.round%e.EvalEvery == 0 {
		row.TestAcc, row.TestLoss = e.Fed.Evaluate(e.Global)
	}
	e.Hist.Add(row)
	e.recordMetrics(row)
}

// recordMetrics mirrors the history row into the metrics registry; a nil
// registry hands out nil instruments, so the whole body is no-ops.
func (e *SyncEngine) recordMetrics(row RoundStats) {
	m := e.Metrics
	m.Counter("adafl_rounds_total").Inc()
	m.Gauge("adafl_round_clients").Set(float64(row.Participants))
	m.Gauge("adafl_round_received").Set(float64(row.Received))
	m.Gauge("adafl_sim_seconds").Set(row.Time)
	if !math.IsNaN(row.TestAcc) {
		m.Gauge("adafl_round_accuracy").Set(row.TestAcc)
	}
}

// FixedRatePlanner implements the baselines' client sampling: every round
// it picks ⌈Rate·N⌉ clients uniformly at random and requests ratio Ratio
// (1 = uncompressed) from each.
type FixedRatePlanner struct {
	Rate  float64
	Ratio float64
	rng   *stats.RNG
}

// NewFixedRatePlanner returns a planner sampling the given participation
// rate with a fixed compression ratio.
func NewFixedRatePlanner(rate, ratio float64, seed uint64) *FixedRatePlanner {
	if rate <= 0 || rate > 1 {
		panic("fl: participation rate out of (0,1]")
	}
	if ratio < 1 {
		ratio = 1
	}
	return &FixedRatePlanner{Rate: rate, Ratio: ratio, rng: stats.NewRNG(seed)}
}

// Plan implements RoundPlanner.
func (p *FixedRatePlanner) Plan(_ int, e *SyncEngine) []Participation {
	n := len(e.Fed.Clients)
	k := int(math.Ceil(p.Rate * float64(n)))
	perm := p.rng.Perm(n)
	out := make([]Participation, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, Participation{Client: idx, Ratio: p.Ratio})
	}
	return out
}

// UnreliablePlanner reproduces the empirical study's degraded clients
// (Figure 1): the clients in Unreliable are either excluded entirely
// (ModeDropout — bandwidth too low to ever deliver) or deliver only every
// Period-th round (ModeDataLoss — high latency makes them miss alternate
// rounds). Reliable clients always participate.
type UnreliablePlanner struct {
	Unreliable map[int]bool
	Mode       UnreliableMode
	// Period is the delivery period for ModeDataLoss (2 = every other
	// round, as in the paper's setup).
	Period int
}

// UnreliableMode selects the degradation model.
type UnreliableMode int

// Degradation modes for UnreliablePlanner.
const (
	// ModeDropout removes unreliable clients' updates entirely.
	ModeDropout UnreliableMode = iota
	// ModeDataLoss lets unreliable clients deliver every Period-th round.
	ModeDataLoss
)

// Plan implements RoundPlanner.
func (p *UnreliablePlanner) Plan(round int, e *SyncEngine) []Participation {
	period := p.Period
	if period <= 0 {
		period = 2
	}
	var out []Participation
	for i := range e.Fed.Clients {
		if p.Unreliable[i] {
			if p.Mode == ModeDropout {
				continue
			}
			if round%period != 0 {
				continue
			}
		}
		out = append(out, Participation{Client: i, Ratio: 1})
	}
	return out
}
