package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"adafl/internal/compress"
	"adafl/internal/device"
	"adafl/internal/fl"
	"adafl/internal/obs"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Config bundles the AdaFL hyperparameters.
type Config struct {
	// K is the maximum number of clients selected per synchronous round
	// (the paper uses k ≤ 5 of 10).
	K int
	// Tau is the utility threshold τ ∈ [0, 1].
	Tau float64
	// Utility configures the score f.
	Utility UtilityConfig
	// Compression configures the adaptive ratio controller.
	Compression CompressionController
	// ExploreFrac reserves a fraction of the K selection slots for the
	// least-recently-selected clients. This extends the warm-up phase's
	// equal-participation principle past warm-up: pure top-score selection
	// can lock onto a coalition of mutually-aligned clients and starve
	// non-IID shards. 0 disables the reservation (pure Algorithm 1). The
	// default 0.8 empirically dominates both pure ranking (starvation) and
	// pure round-robin (no utility signal); see the ablation bench.
	ExploreFrac float64
	// AsyncAlpha, AsyncAnchor and AsyncDecay configure the fully-
	// asynchronous server apply step (delta scale, anchor pull, and the
	// polynomial staleness exponent) — see AsyncApply.
	AsyncAlpha, AsyncAnchor, AsyncDecay float64
	// DGCMomentum and DGCClip configure the client-side DGC codecs
	// AttachDGC installs. In the delta-exchange engines the client's model
	// delta already carries the local optimizer's momentum, so the codec's
	// momentum correction defaults to 0 (pure error feedback); momentum
	// correction harmonises sparse updates only when raw per-step
	// gradients are exchanged.
	DGCMomentum, DGCClip float64
	// DGCMsgClip bounds each transmitted message's norm relative to the
	// current delta (see compress.DGC.MsgClipFactor); it rate-limits stale
	// residual dumps from intermittently selected clients.
	DGCMsgClip float64
}

// DefaultConfig returns the configuration behind the paper's headline
// numbers: k ≤ 5 of 10 clients, τ = 0.5, 5 warm-up rounds, 4x–210x ratios.
func DefaultConfig() Config {
	return Config{
		K:           5,
		Tau:         0.3,
		Utility:     DefaultUtility(),
		Compression: DefaultController(),
		ExploreFrac: 0.8,
		AsyncAlpha:  0.6,
		AsyncAnchor: 0.2,
		AsyncDecay:  0.5,
		DGCMomentum: 0,
		DGCClip:     10,
		DGCMsgClip:  2,
	}
}

// ScaleRatiosForModel adjusts the compression bounds to the gradient-skew
// regime of the model in use. The paper's 4x–210x ladder presumes the
// heavy-tailed gradient spectra of deep CNNs, where the top fraction of a
// per-round delta carries most of its mass; for the small dense models the
// fast experiment presets use, the spectra are flat and the same ratios
// would discard most of the update. dim is the model's parameter count:
// below smallModelDim the MaxRatio is capped at maxForSmall.
func (c *Config) ScaleRatiosForModel(dim int) {
	const smallModelDim = 100000
	const maxForSmall = 10
	if dim < smallModelDim && c.Compression.MaxRatio > maxForSmall {
		c.Compression.MaxRatio = maxForSmall
	}
	if c.Compression.MinRatio > c.Compression.MaxRatio {
		c.Compression.MinRatio = c.Compression.MaxRatio
	}
}

// AttachDGC installs a fresh per-client DGC codec on every client of the
// federation (AdaFL's compression builds on DGC; each client needs its own
// accumulator state).
func (c Config) AttachDGC(fed *fl.Federation) {
	probe := compress.DGC{Momentum: c.DGCMomentum, ClipNorm: c.DGCClip, MsgClipFactor: c.DGCMsgClip}
	if err := probe.Validate(); err != nil {
		panic(err)
	}
	for _, cl := range fed.Clients {
		cl.Codec = &compress.DGC{
			Momentum:      c.DGCMomentum,
			ClipNorm:      c.DGCClip,
			MsgClipFactor: c.DGCMsgClip,
		}
	}
}

// SyncPlanner is AdaFL's adaptive node selection for both synchronous
// engines. Each round it scores every client by equation 6 using the
// client's cached local delta against the previous global delta and the
// client's current link bandwidths (the wire's clients score themselves),
// applies Algorithm 1, and assigns rank-based compression ratios.
//
// During warm-up all clients participate at the warm-up ratio, letting the
// global model absorb every data distribution before specialising.
type SyncPlanner struct {
	Cfg Config
	// Perf, when non-nil, records utility-score and compression cycle
	// counts against the given device profile (the overhead experiment).
	Perf        *device.PerfMonitor
	PerfProfile device.Profile

	// RatioStats tracks the spread of assigned ratios for the tables.
	RatioStats RatioTracker

	// Metrics, when non-nil, receives adafl_utility_score,
	// adafl_compression_ratio, adafl_negotiated_ratio and
	// adafl_codec_assigned_total.
	Metrics *obs.Registry

	// Eligible, when non-nil, restricts selection to clients it reports
	// true for — the scenario engine's availability gate. Ineligible
	// clients are excluded everywhere: warm-up, top-score selection, the
	// fairness reservation and the empty-selection fallback. If no client
	// is eligible the plan is empty and the round runs with no updates.
	Eligible func(client int) bool
	// ScoreMult, when non-nil, scales each client's utility score before
	// Algorithm 1 ranks them — the scenario engine's battery-aware smart
	// sampling (low-battery clients are deprioritised).
	ScoreMult func(client int) float64

	// Negotiator, when non-nil, turns on per-round codec negotiation: the
	// utility-ranked ratios become the baseline a deterministic link-state
	// assignment refines, selected clients may be switched to the
	// DAdaQuant codec, and each client's last assigned ratio feeds back
	// into its utility score (Negotiator.ScoreMult).
	Negotiator *Negotiator
	// BandwidthMult returns the client's bandwidth multiplier for the
	// round (the scenario's trace multiplier); nil means 1 everywhere.
	// It must be a pure function of (client, round) for replay.
	BandwidthMult func(client, round int) float64
	// NegotiationSeed seeds the planner-owned DAdaQuant codecs'
	// stochastic rounding (one derived stream per client).
	NegotiationSeed uint64

	dadaCodecs map[int]*compress.DAdaQuant

	// lastSel records the round each client last participated, for the
	// ExploreFrac fairness reservation.
	lastSel map[int]int
}

// NewSyncPlanner returns a planner with the given configuration.
func NewSyncPlanner(cfg Config) *SyncPlanner {
	cfg.Compression.Validate()
	return &SyncPlanner{Cfg: cfg, lastSel: map[int]int{}}
}

// LastSel is the round each client was last picked in: the planner's own
// map, which a snapshot reads and a resume restores in place.
func (p *SyncPlanner) LastSel() map[int]int { return p.lastSel }

// Plan implements fl.RoundPlanner: it scores the eligible clients, hands
// them to Decide and attaches the planner-owned DAdaQuant codec to every
// pick the negotiator switched to it.
func (p *SyncPlanner) Plan(round int, e *fl.SyncEngine) []fl.Participation {
	ids := make([]int, 0, len(e.Fed.Clients))
	for i := range e.Fed.Clients {
		if p.Eligible == nil || p.Eligible(i) {
			ids = append(ids, i)
		}
	}
	deltaZero := tensor.IsZero(e.LastGlobalDelta)
	var scores []float64
	if !p.Cfg.warmup(round, deltaZero) {
		scores = p.score(ids, e)
	}
	d := p.Decide(round, ids, scores, deltaZero)
	out := make([]fl.Participation, len(d.Picks))
	for i, pl := range d.Picks {
		out[i] = fl.Participation{Client: pl.Client, Ratio: pl.Ratio}
		if a, ok := d.Assign[pl.Client]; ok {
			out[i].Ratio = a.Ratio
			if a.Codec == CodecDAdaQuant {
				out[i].Codec = p.dadaCodec(pl.Client, round, a.Levels)
			}
		}
		if p.Perf != nil {
			p.Perf.Record("dgc-encode",
				p.PerfProfile.CyclesForFLOPs(device.DGCEncodeFLOPs(len(e.Global))))
		}
	}
	return out
}

// Decision is one lockstep round as Decide settled it.
type Decision struct {
	// IDs are the clients that could be picked, ascending; Scores are
	// their scaled utility scores (nil in a round nobody scored).
	IDs    []int
	Scores []float64
	// Picks are Algorithm 1's selections in rank order at their ranked
	// ratios, which Ratios maps by client.
	Picks  []Planned
	Ratios map[int]float64
	// Assign is the negotiator's order for each pick, superseding its
	// ranked ratio; nil without a negotiator.
	Assign map[int]CodecAssignment
}

// Decide is the round decision over scores already in hand: the wire
// server's, from what its clients reported, and Plan's once it has
// scored. ids is the roster, ascending, and scores[k] the raw score of
// ids[k] (scores is nil when nobody scored). Decide drops the clients
// Eligible rejects, compacting both slices in place, scales each score by
// ScoreMult and then the negotiator's feedback, runs Config.PlanRound,
// records the picks and has the negotiator assign each its codec.
func (p *SyncPlanner) Decide(round int, ids []int, scores []float64, deltaZero bool) Decision {
	scoreHist := p.Metrics.Histogram("adafl_utility_score", obs.ScoreBuckets)
	if p.Cfg.warmup(round, deltaZero) {
		scoreHist = nil // a warm-up ranks nothing, and Plan scores nobody in one
	}
	n := 0
	for k, id := range ids {
		if p.Eligible != nil && !p.Eligible(id) {
			continue
		}
		ids[n] = id
		if scores != nil {
			s := scores[k]
			if p.ScoreMult != nil {
				s *= p.ScoreMult(id)
			}
			if p.Negotiator != nil {
				s *= p.Negotiator.ScoreMult(id)
			}
			scores[n] = s
			scoreHist.Observe(s)
		}
		n++
	}
	d := Decision{IDs: ids[:n]}
	if scores != nil {
		d.Scores = scores[:n]
	}
	d.Picks = p.Cfg.PlanRound(round, d.IDs, d.Scores, p.lastSel, deltaZero)
	d.Ratios = make(map[int]float64, len(d.Picks))
	ratioHist := p.Metrics.Histogram("adafl_compression_ratio", obs.RatioBuckets)
	for _, pl := range d.Picks {
		d.Ratios[pl.Client] = pl.Ratio
		p.RatioStats.Observe(pl.Ratio)
		ratioHist.Observe(pl.Ratio)
		p.lastSel[pl.Client] = round
	}
	if p.Negotiator == nil {
		return d
	}
	var bw func(int) float64
	if p.BandwidthMult != nil {
		bw = func(id int) float64 { return p.BandwidthMult(id, round) }
	}
	d.Assign = p.Negotiator.Assign(round, d.Ratios, bw)
	negHist := p.Metrics.Histogram("adafl_negotiated_ratio", obs.RatioBuckets)
	for _, a := range d.Assign {
		p.Metrics.Counter(obs.WithLabel("adafl_codec_assigned_total", "codec", a.Codec)).Inc()
		negHist.Observe(a.Ratio)
	}
	return d
}

// score computes equation 6 for each listed client from its cached local
// delta, the previous global delta and its current link bandwidths.
//
// The scores themselves, one similarity pass over a model-sized vector per
// client, fan out across GOMAXPROCS goroutines and land by index; the
// bandwidth reads before them and the cycle records after them stay
// serial in plan order, so the plan is the same for any core count.
func (p *SyncPlanner) score(ids []int, e *fl.SyncEngine) []float64 {
	ups, downs := make([]float64, len(ids)), make([]float64, len(ids))
	locals := make([][]float64, len(ids))
	for k, i := range ids {
		ups[k], downs[k] = e.Fed.Net.Bandwidths(i, e.Now())
		locals[k] = e.Fed.Clients[i].LastDelta
		if locals[k] == nil {
			locals[k] = e.LastGlobalDelta // untried client: score as aligned
		}
	}

	scores := make([]float64, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(ids)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(ids) {
					return
				}
				scores[k] = p.Cfg.Utility.Score(ups[k], downs[k], locals[k], e.LastGlobalDelta)
			}
		}()
	}
	wg.Wait()

	if p.Perf != nil {
		for k := range ids {
			p.Perf.Record("utility-score",
				p.PerfProfile.CyclesForFLOPs(device.UtilityScoreFLOPs(len(locals[k]))))
		}
	}
	return scores
}

// dadaCodec returns the planner-owned DAdaQuant instance for the client,
// pinned to the assigned level count and round. Each client gets its own
// derived RNG stream so stochastic rounding replays per client no matter
// which rounds it is selected in.
func (p *SyncPlanner) dadaCodec(client, round, levels int) compress.Codec {
	if p.dadaCodecs == nil {
		p.dadaCodecs = make(map[int]*compress.DAdaQuant)
	}
	d := p.dadaCodecs[client]
	if d == nil {
		cfg := p.Negotiator.Config()
		rng := stats.NewRNG(p.NegotiationSeed + 0x9e3779b97f4a7c15*uint64(client+1))
		d = compress.NewDAdaQuant(cfg.MinLevels, cfg.MaxLevels, cfg.LevelDoubleEvery, rng)
		p.dadaCodecs[client] = d
	}
	d.SetRound(round)
	d.SetLevels(levels)
	return d
}

// AsyncGate is AdaFL's client-side utility gating for the asynchronous
// engine: after local training, the client scores its own delta against
// the last global delta; below-threshold updates are withheld (the client
// idles until the next global model) and transmitted updates are
// compressed according to the score.
type AsyncGate struct {
	Cfg        Config
	RatioStats RatioTracker
	decisions  int
	skipped    int
}

// NewAsyncGate returns a gate with the given configuration.
func NewAsyncGate(cfg Config) *AsyncGate {
	cfg.Compression.Validate()
	return &AsyncGate{Cfg: cfg}
}

// SkipRate reports the fraction of training completions that were withheld.
func (g *AsyncGate) SkipRate() float64 {
	if g.decisions == 0 {
		return 0
	}
	return float64(g.skipped) / float64(g.decisions)
}

// Decide implements fl.AsyncGate.
func (g *AsyncGate) Decide(e *fl.AsyncEngine, client int, delta []float64) (bool, float64) {
	g.decisions++
	// Warm-up: every update flows, lightly compressed.
	if g.Cfg.warmup(e.Version, tensor.IsZero(e.LastGlobalDelta)) {
		ratio := g.Cfg.Compression.WarmupRatio
		g.RatioStats.Observe(ratio)
		return true, ratio
	}
	up, down := e.Fed.Net.Bandwidths(client, e.Now())
	score := g.Cfg.Utility.Score(up, down, delta, e.LastGlobalDelta)
	if score < g.Cfg.Tau {
		g.skipped++
		return false, 0
	}
	ratio := g.Cfg.Compression.RatioForScore(score, e.Version)
	g.RatioStats.Observe(ratio)
	return true, ratio
}

// AsyncApply is AdaFL's fully-asynchronous server step: every received
// (gated, compressed) update is applied immediately — "the server upgrades
// its global model each time it receives a gradient update". The update
// combines the client's sparse delta (scaled by Alpha) with a mild anchor
// pull toward the model version the client trained from (scaled by
// Anchor); both coefficients decay polynomially with staleness. The anchor
// term damps the drift that pure delta application accumulates when many
// clients race, without the full model-mixing of FedAsync that washes out
// minority (non-IID) contributions.
type AsyncApply struct {
	Alpha  float64
	Anchor float64
	Decay  float64
}

// Name implements fl.AsyncStrategy.
func (AsyncApply) Name() string { return "adafl-async" }

// OnReceive implements fl.AsyncStrategy.
func (a AsyncApply) OnReceive(global, downloaded []float64, u fl.Update) bool {
	d := 1.0
	if a.Decay > 0 {
		d = math.Pow(1+float64(u.Staleness), -a.Decay)
	}
	step := a.Alpha * d
	u.Delta.AddTo(global, step)
	if a.Anchor > 0 && downloaded != nil {
		anchor := a.Anchor * d
		for i := range global {
			global[i] += anchor * (downloaded[i] - global[i])
		}
	}
	return true
}

// RatioTracker records the spread of compression ratios AdaFL assigned,
// feeding the "Gradient Size" and "Compress. Ratio" table columns.
type RatioTracker struct {
	Count    int
	MinRatio float64
	MaxRatio float64
	sum      float64
}

// Observe records one assigned ratio.
func (t *RatioTracker) Observe(r float64) {
	if t.Count == 0 || r < t.MinRatio {
		t.MinRatio = r
	}
	if t.Count == 0 || r > t.MaxRatio {
		t.MaxRatio = r
	}
	t.sum += r
	t.Count++
}

// Mean returns the average assigned ratio.
func (t *RatioTracker) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return t.sum / float64(t.Count)
}
