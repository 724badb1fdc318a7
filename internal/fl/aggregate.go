package fl

import (
	"math"

	"adafl/internal/nn"
	"adafl/internal/shard"
	"adafl/internal/tensor"
)

// Aggregator combines the updates received in one synchronous round into
// the global model vector (mutated in place). Every aggregator is a
// two-phase sum-then-scale rule over a shard.Partial, so the same
// arithmetic serves a buffered update slice (Apply) and a partial merged
// elsewhere — a shard tree or an edge tier (ApplyPartial).
type Aggregator interface {
	Name() string
	// Apply screens the updates, folds the survivors in slice order and
	// applies the result (see applyUpdates).
	Apply(global []float64, updates []Update)
	// ApplyPartial applies an already folded partial.
	ApplyPartial(global []float64, p *shard.Partial)
	// PartialUnweighted reports whether updates must fold with scale 1
	// (SCAFFOLD) instead of their data weight.
	PartialUnweighted() bool
}

// applyUpdates is the one screen-fold-apply path behind every Apply.
// shard.Screen drops structurally malformed deltas (nil message, wrong
// dimension, index/value length mismatch, out-of-range indices) and
// scrubs non-finite values before anything is folded: a single bad update
// must not panic the server or corrupt the model, and a dropped update
// leaves the weight normalisation exactly like an evicted straggler's
// would. Survivors fold into one partial in slice order, so the result is
// bit-identical to a single-shard tree fed in the same order.
func applyUpdates(agg Aggregator, global []float64, updates []Update) {
	items := make([]shard.Item, len(updates))
	for i, u := range updates {
		items[i] = shard.Item{Client: u.Client, Tag: i, Upd: u.Delta}
	}
	kept, _ := shard.Screen(0, len(global), 0, items, nil)
	part := shard.NewPartial(len(global))
	for _, it := range kept {
		u := updates[it.Tag]
		part.Fold(shard.Update{Client: u.Client, Weight: u.Weight, Delta: u.Delta, Ctrl: u.CtrlDelta},
			agg.PartialUnweighted())
	}
	agg.ApplyPartial(global, part)
}

// FedAvg is weighted model averaging (McMahan et al.): the global model
// moves to the data-weighted mean of the participants' local models.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Apply implements Aggregator.
func (a FedAvg) Apply(global []float64, updates []Update) { applyUpdates(a, global, updates) }

// ApplyPartial implements Aggregator: w ← w + Sum/ΣW.
func (FedAvg) ApplyPartial(global []float64, p *shard.Partial) {
	if p == nil || p.Count == 0 || p.WeightSum == 0 {
		return
	}
	tensor.Axpy(1/p.WeightSum, p.Sum, global)
}

// PartialUnweighted implements Aggregator.
func (FedAvg) PartialUnweighted() bool { return false }

// FedAdam applies server-side Adam (Reddi et al.) to the averaged client
// delta, treated as a pseudo-gradient.
type FedAdam struct {
	adam *nn.Adam
}

// NewFedAdam returns a FedAdam aggregator with server learning rate lr.
func NewFedAdam(lr float64) *FedAdam {
	return &FedAdam{adam: nn.NewAdam(lr, 0, 0, 0)}
}

// Name implements Aggregator.
func (*FedAdam) Name() string { return "fedadam" }

// Apply implements Aggregator.
func (f *FedAdam) Apply(global []float64, updates []Update) { applyUpdates(f, global, updates) }

// ApplyPartial implements Aggregator. The pseudo-gradient is the negated
// average delta; DirectionVec returns the descent step −lr·m̂/(√v̂+ε),
// which then moves along +Δ.
func (f *FedAdam) ApplyPartial(global []float64, p *shard.Partial) {
	if p == nil || p.Count == 0 || p.WeightSum == 0 {
		return
	}
	avg := make([]float64, len(global))
	inv := 1 / p.WeightSum
	for i, v := range p.Sum {
		avg[i] = -v * inv
	}
	step := f.adam.DirectionVec(avg)
	tensor.Axpy(1, step, global)
}

// PartialUnweighted implements Aggregator.
func (*FedAdam) PartialUnweighted() bool { return false }

// Scaffold is the server half of SCAFFOLD (Karimireddy et al.): unweighted
// averaging of client deltas with a global learning rate, plus maintenance
// of the server control variate c.
type Scaffold struct {
	// GlobalLR is the server step size η_g (1.0 in the paper's default).
	GlobalLR float64
	// NumClients is the federation size N, used to scale the control
	// variate update by |S|/N.
	NumClients int

	c []float64
}

// NewScaffold returns the SCAFFOLD server state for a federation of n
// clients.
func NewScaffold(globalLR float64, n int) *Scaffold {
	return &Scaffold{GlobalLR: globalLR, NumClients: n}
}

// Name implements Aggregator.
func (*Scaffold) Name() string { return "scaffold" }

// C returns the server control variate, lazily sized to dim. The engine
// hands it to clients before each round.
func (s *Scaffold) C(dim int) []float64 {
	if s.c == nil {
		s.c = make([]float64, dim)
	}
	return s.c
}

// Apply implements Aggregator.
func (s *Scaffold) Apply(global []float64, updates []Update) { applyUpdates(s, global, updates) }

// ApplyPartial implements Aggregator. The partial comes from an
// unweighted fold (PartialUnweighted), so Sum is the plain delta sum and
// Count is |S|: one Axpy each applies the η_g/|S| and |S|/N·(1/|S|)
// scalings.
func (s *Scaffold) ApplyPartial(global []float64, p *shard.Partial) {
	if p == nil || p.Count == 0 {
		return
	}
	inv := 1 / float64(p.Count)
	tensor.Axpy(s.GlobalLR*inv, p.Sum, global)
	// c ← c + |S|/N · mean(Δc_i)
	if p.CtrlSum != nil {
		cc := s.C(len(global))
		scale := float64(p.Count) / float64(s.NumClients) * inv
		tensor.Axpy(scale, p.CtrlSum, cc)
	}
}

// PartialUnweighted implements Aggregator.
func (*Scaffold) PartialUnweighted() bool { return true }

// AsyncStrategy processes updates one at a time as they arrive at the
// asynchronous server.
type AsyncStrategy interface {
	Name() string
	// OnReceive applies one arriving update. downloaded is the global
	// parameter snapshot the client trained from. It reports whether the
	// global model version advanced (FedBuff only advances on flush).
	OnReceive(global []float64, downloaded []float64, u Update) bool
}

// FedAsync is asynchronous federated optimization (Xie et al.): on each
// arrival the server mixes the client model in with a staleness-decayed
// factor α_s = Alpha · (1+staleness)^(−Decay).
type FedAsync struct {
	// Alpha is the base mixing weight.
	Alpha float64
	// Decay is the polynomial staleness exponent a (0 disables decay).
	Decay float64
}

// Name implements AsyncStrategy.
func (FedAsync) Name() string { return "fedasync" }

// StalenessWeight returns α_s for the given staleness.
func (f FedAsync) StalenessWeight(staleness int) float64 {
	w := f.Alpha
	if f.Decay > 0 {
		w *= math.Pow(1+float64(staleness), -f.Decay)
	}
	return w
}

// OnReceive implements AsyncStrategy.
func (f FedAsync) OnReceive(global, downloaded []float64, u Update) bool {
	alpha := f.StalenessWeight(u.Staleness)
	// w ← (1−α)w + α·(w_downloaded + Δ)
	clientModel := tensor.CopyVec(downloaded)
	u.Delta.AddTo(clientModel, 1)
	for i := range global {
		global[i] = (1-alpha)*global[i] + alpha*clientModel[i]
	}
	return true
}

// StalenessWeight is the single source of truth for FedBuff-style
// staleness discounting: an update trained against a model s versions
// old contributes with weight 1/sqrt(1+s). Both the in-process
// AsyncEngine strategy (FedBuff) and the wire-mode session buffer
// (internal/session) use this function, so their trajectories are
// directly comparable; a staleness of 0 yields exactly 1.
func StalenessWeight(staleness int) float64 {
	if staleness <= 0 {
		return 1
	}
	return 1 / math.Sqrt(1+float64(staleness))
}

// FedBuff is buffered asynchronous aggregation (Nguyen et al.): deltas
// accumulate in a size-K buffer; when full, their staleness-weighted
// average is applied with server learning rate Eta. Each buffered delta
// is weighted by StalenessWeight(staleness), so a fresh buffer (all
// staleness 0) reduces to the plain mean.
type FedBuff struct {
	// K is the buffer size.
	K int
	// Eta is the server learning rate applied to the buffered average.
	Eta float64

	buf     [][]float64
	weights []float64
}

// NewFedBuff returns a FedBuff server with buffer size k.
func NewFedBuff(k int, eta float64) *FedBuff {
	if k <= 0 {
		panic("fl: FedBuff buffer size must be positive")
	}
	return &FedBuff{K: k, Eta: eta}
}

// Name implements AsyncStrategy.
func (*FedBuff) Name() string { return "fedbuff" }

// OnReceive implements AsyncStrategy.
func (f *FedBuff) OnReceive(global, _ []float64, u Update) bool {
	f.buf = append(f.buf, u.Delta.Dense())
	f.weights = append(f.weights, StalenessWeight(u.Staleness))
	if len(f.buf) < f.K {
		return false
	}
	var wsum float64
	for _, w := range f.weights {
		wsum += w
	}
	for i, d := range f.buf {
		tensor.Axpy(f.Eta*f.weights[i]/wsum, d, global)
	}
	f.buf = f.buf[:0]
	f.weights = f.weights[:0]
	return true
}
