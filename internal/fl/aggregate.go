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
	// Apply screens the updates, folds the survivors and applies the
	// result (see foldUpdates).
	Apply(global []float64, updates []Update) error
	// ApplyPartial applies an already folded partial. A partial outside
	// the fold window (shard.Partial.Window) leaves global untouched and
	// is the error.
	ApplyPartial(global []float64, p *shard.Partial) error
	// PartialUnweighted reports whether updates must fold with scale 1
	// (SCAFFOLD) instead of their data weight.
	PartialUnweighted() bool
}

// foldUpdates is the fold behind every Apply: the updates go through a
// one-stripe shard tree, the fold every engine runs. Its Ingest drops
// malformed deltas and updates outside the fold window and scrubs
// non-finite values, so a bad update neither panics the server nor
// corrupts the model, and a dropped one leaves the weight normalisation
// as an evicted straggler's does.
func foldUpdates(agg Aggregator, dim int, updates []Update) *shard.Partial {
	tree := shard.NewTree(shard.Config{Shards: 1, Dim: dim})
	for _, u := range updates {
		w := u.Weight
		if agg.PartialUnweighted() {
			w = 1
		}
		tree.Ingest(0, shard.Update{Client: u.Client, Weight: w, Delta: u.Delta, Ctrl: u.CtrlDelta})
	}
	part, _ := tree.Finish()
	return part
}

// ApplyRound applies a lockstep round's partial through agg and leaves the
// round's movement ĝ = new − old in gdelta, which holds the old global
// while agg applies: nothing is copied out. A refused partial (the error)
// leaves global as it was and ĝ = x − x, 0 for every finite x.
func ApplyRound(agg Aggregator, global, gdelta []float64, p *shard.Partial) error {
	copy(gdelta, global)
	err := agg.ApplyPartial(global, p)
	tensor.SubVec(gdelta, global, gdelta)
	return err
}

// FedAvg is weighted model averaging (McMahan et al.): the global model
// moves to the data-weighted mean of the participants' local models.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Apply implements Aggregator.
func (a FedAvg) Apply(global []float64, updates []Update) error {
	return a.ApplyPartial(global, foldUpdates(a, len(global), updates))
}

// ApplyPartial implements Aggregator: w ← w + Sum/ΣW.
func (FedAvg) ApplyPartial(global []float64, p *shard.Partial) error {
	if p == nil || p.Count == 0 || p.WeightSum == 0 {
		return nil
	}
	return p.AddTo(global, 1/p.Weight())
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
func (f *FedAdam) Apply(global []float64, updates []Update) error {
	return f.ApplyPartial(global, foldUpdates(f, len(global), updates))
}

// ApplyPartial implements Aggregator. The pseudo-gradient is the negated
// average delta; DirectionVec returns the descent step −lr·m̂/(√v̂+ε),
// which then moves along +Δ.
func (f *FedAdam) ApplyPartial(global []float64, p *shard.Partial) error {
	if p == nil || p.Count == 0 || p.WeightSum == 0 {
		return nil
	}
	avg := make([]float64, len(global))
	if err := p.AddTo(avg, -1/p.Weight()); err != nil {
		return err
	}
	step := f.adam.DirectionVec(avg)
	tensor.Axpy(1, step, global)
	return nil
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
func (s *Scaffold) Apply(global []float64, updates []Update) error {
	return s.ApplyPartial(global, foldUpdates(s, len(global), updates))
}

// ApplyPartial implements Aggregator. The partial comes from an
// unweighted fold (PartialUnweighted), so Sum is the plain delta sum and
// Count is |S|: one Axpy each applies the η_g/|S| and |S|/N·(1/|S|)
// scalings.
func (s *Scaffold) ApplyPartial(global []float64, p *shard.Partial) error {
	if p == nil || p.Count == 0 {
		return nil
	}
	inv := 1 / float64(p.Count)
	if err := p.AddTo(global, s.GlobalLR*inv); err != nil {
		return err
	}
	// c ← c + |S|/N · mean(Δc_i)
	if p.CtrlSum != nil {
		scale := float64(p.Count) / float64(s.NumClients) * inv
		return p.AddCtrlTo(s.C(len(global)), scale)
	}
	return nil
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
// are ingested into a one-stripe shard tree as they arrive; at K of them,
// their staleness-weighted average is applied with server learning rate
// Eta — the wire session's buffer (internal/session) to the bit. Each
// delta is weighted by StalenessWeight(staleness), so a fresh buffer (all
// staleness 0) reduces to the plain mean.
type FedBuff struct {
	// K is the buffer size.
	K int
	// Eta is the server learning rate applied to the buffered average.
	Eta float64

	tree     *shard.Tree
	buffered int // updates ingested since the last apply, quarantined ones included
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

// OnReceive implements AsyncStrategy. A buffer quarantined whole or outside
// the fold window is dropped without touching global or the version.
func (f *FedBuff) OnReceive(global, _ []float64, u Update) bool {
	if f.tree == nil {
		f.tree = shard.NewTree(shard.Config{Shards: 1, Dim: len(global)})
	}
	f.tree.Ingest(0, shard.Update{Client: u.Client, Weight: StalenessWeight(u.Staleness), Delta: u.Delta})
	if f.buffered++; f.buffered < f.K {
		return false
	}
	f.buffered = 0
	part, _ := f.tree.Finish()
	moved, _ := f.ApplyPartial(global, part)
	return moved
}

// ApplyPartial is the FedBuff step global += Eta·Sum/ΣW over a drained
// buffer and reports whether global moved: not for a buffer with no weight
// left (quarantined whole) nor for one outside the fold window (the error).
func (f *FedBuff) ApplyPartial(global []float64, p *shard.Partial) (bool, error) {
	if p.Count == 0 || p.WeightSum <= 0 {
		return false, nil
	}
	if err := p.AddTo(global, f.Eta/p.Weight()); err != nil {
		return false, err
	}
	return true, nil
}
