package core

import (
	"fmt"
	"math"
	"sort"

	"adafl/internal/compress"
)

// Codec names the negotiator can assign. They travel in the Select
// broadcast, so both ends of a session must agree on the vocabulary.
const (
	CodecDGC       = "dgc"
	CodecDAdaQuant = "dadaquant"
)

// CodecAssignment is the negotiated uplink order for one client in one
// round: which codec to encode with, at what byte-level ratio, and — for
// the quantizing codec — how many levels.
type CodecAssignment struct {
	Codec  string
	Ratio  float64
	Levels int
}

// NegotiationConfig configures per-round codec negotiation (arXiv
// 2405.03248-style server-assigned compression under dynamic bandwidth,
// with DAdaQuant's doubly-adaptive level schedule).
type NegotiationConfig struct {
	// Enabled turns negotiation on; the zero value leaves the session on
	// its static per-client codecs.
	Enabled bool
	// MinLevels and MaxLevels bound the DAdaQuant level count.
	MinLevels, MaxLevels int
	// LevelDoubleEvery is the global schedule period: the scheduled level
	// count doubles once per this many rounds (coarse early, fine late).
	LevelDoubleEvery int
	// SwitchRatio is the effective ratio at which the negotiator switches
	// a client from DGC sparsification to DAdaQuant quantization.
	SwitchRatio float64
	// BytesSmoothing is the EWMA coefficient α ∈ (0, 1] for the observed
	// per-round uplink bytes that feed the byte-pressure term.
	BytesSmoothing float64
	// CostGain scales the utility-score feedback: a client whose last
	// assignment compressed at the deep end of the range gets its score
	// multiplied by up to 1+CostGain, so cheap-to-upload clients rank
	// accordingly. 0 disables the feedback.
	CostGain float64
}

// DefaultNegotiation returns the negotiation defaults: 15–63 levels
// doubling every 8 rounds, quantization past 12x, and a 25% score boost
// at the deep end. The 15-level floor keeps negotiated quantization at
// QSGD fidelity even when a bandwidth collapse scales the era's grid
// down — ternary-coarse grids cost far more accuracy than the bytes they
// save (fixed terngrad, on the fluctuating-bandwidth scenario over three
// seeds: a third of qsgd's uplink, 0.63 final accuracy against 0.84).
func DefaultNegotiation() NegotiationConfig {
	return NegotiationConfig{
		MinLevels:        15,
		MaxLevels:        63,
		LevelDoubleEvery: 8,
		SwitchRatio:      12,
		BytesSmoothing:   0.5,
		CostGain:         0.25,
	}
}

// Validate rejects configurations the negotiator cannot run: NaN or
// non-positive level counts and ratios must be caught at config parse,
// before they reach the deterministic assignment arithmetic.
func (c NegotiationConfig) Validate() error {
	if c.MinLevels < 1 {
		return fmt.Errorf("core: negotiation MinLevels %d must be >= 1", c.MinLevels)
	}
	if c.MaxLevels < c.MinLevels {
		return fmt.Errorf("core: negotiation MaxLevels %d below MinLevels %d", c.MaxLevels, c.MinLevels)
	}
	if c.MaxLevels > 1<<20 {
		return fmt.Errorf("core: negotiation MaxLevels %d exceeds the wire codec's 2^20 cap", c.MaxLevels)
	}
	if c.LevelDoubleEvery < 1 {
		return fmt.Errorf("core: negotiation LevelDoubleEvery %d must be >= 1", c.LevelDoubleEvery)
	}
	if math.IsNaN(c.SwitchRatio) || c.SwitchRatio < 1 {
		return fmt.Errorf("core: negotiation SwitchRatio %v must be >= 1", c.SwitchRatio)
	}
	if math.IsNaN(c.BytesSmoothing) || c.BytesSmoothing <= 0 || c.BytesSmoothing > 1 {
		return fmt.Errorf("core: negotiation BytesSmoothing %v outside (0, 1]", c.BytesSmoothing)
	}
	if math.IsNaN(c.CostGain) || c.CostGain < 0 {
		return fmt.Errorf("core: negotiation CostGain %v must be >= 0", c.CostGain)
	}
	return nil
}

// LinkState is the negotiator's per-client observation history. All of it
// is derived from deterministic inputs (wire bytes of deterministic
// encodes, assignment arithmetic), so it replays byte-identically and can
// join the session checkpoint.
type LinkState struct {
	// EWMABytes smooths the client's observed uplink bytes per accepted
	// round.
	EWMABytes float64
	// LastRatio and LastCodec record the most recent assignment, feeding
	// the utility-score cost multiplier.
	LastRatio float64
	LastCodec string
	// Assigned counts rounds with an assignment.
	Assigned int
}

// NegotiationState is the checkpointable snapshot of a negotiator: its
// config (resume refuses a mismatch — assignments would silently diverge
// from the uninterrupted run otherwise) and the per-client link states.
type NegotiationState struct {
	Config NegotiationConfig
	Links  map[int]LinkState
}

// Negotiator assigns every selected client a codec+ratio each round from
// its observed link state. Assignments are a pure function of (config,
// controller, round, plan, bandwidth multipliers, recorded byte history):
// no wall clock, no RNG — the scenario golden-replay and checkpoint-resume
// tests pin this.
//
// Wall-clock latency history is deliberately *excluded* from decisions
// (it is not replayable); it belongs in the observability histograms only.
type Negotiator struct {
	cfg   NegotiationConfig
	ctrl  CompressionController
	links map[int]*LinkState
}

// NewNegotiator validates cfg and returns a negotiator driving ratios
// from the given compression controller's bounds.
func NewNegotiator(cfg NegotiationConfig, ctrl CompressionController) (*Negotiator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctrl.Validate()
	return &Negotiator{cfg: cfg, ctrl: ctrl, links: make(map[int]*LinkState)}, nil
}

// Config returns the validated configuration.
func (n *Negotiator) Config() NegotiationConfig { return n.cfg }

// maxRatio is the deepest ratio the negotiator may assign: the controller
// ceiling with 2x headroom for bandwidth collapse. Deeper headroom saves
// almost no transfer time beyond this (the message is already small next
// to the model broadcast) but the lost gradient mass measurably delays
// convergence — bench/'s sim_tta workload sits at this operating point.
func (n *Negotiator) maxRatio() float64 { return 2 * n.ctrl.MaxRatio }

func (n *Negotiator) link(id int) *LinkState {
	ls := n.links[id]
	if ls == nil {
		ls = &LinkState{}
		n.links[id] = ls
	}
	return ls
}

// RecordUpload folds one accepted upload's wire bytes into the client's
// EWMA. Per-client state makes the fold order-independent across clients,
// so the rpc server may call it in receipt order without breaking replay.
func (n *Negotiator) RecordUpload(id, bytes int) {
	ls := n.link(id)
	if ls.EWMABytes == 0 {
		ls.EWMABytes = float64(bytes)
		return
	}
	a := n.cfg.BytesSmoothing
	ls.EWMABytes = (1-a)*ls.EWMABytes + a*float64(bytes)
}

// ScoreMult returns the utility-score multiplier fed back from the
// client's last assignment: 1 at MinRatio rising to 1+CostGain at the
// negotiator's ratio ceiling, so clients that upload cheaply rank higher.
func (n *Negotiator) ScoreMult(id int) float64 {
	ls := n.links[id]
	if ls == nil || n.cfg.CostGain == 0 || ls.LastRatio <= n.ctrl.MinRatio {
		return 1
	}
	t := math.Log(ls.LastRatio/n.ctrl.MinRatio) / math.Log(n.maxRatio()/n.ctrl.MinRatio)
	if t > 1 {
		t = 1
	}
	return 1 + n.cfg.CostGain*t
}

// assignOne maps one client's effective ratio to a codec assignment and
// records it in the link state.
func (n *Negotiator) assignOne(round, id int, eff, mult float64) CodecAssignment {
	eff = compress.ClampRatio(eff, 1, n.maxRatio())
	a := CodecAssignment{Codec: CodecDGC, Ratio: eff}
	if eff >= n.cfg.SwitchRatio {
		a.Codec = CodecDAdaQuant
		// Doubly adaptive: the global schedule sets the era's resolution,
		// the client's bandwidth multiplier scales it — a throttled link
		// gets a coarser grid this round.
		base := compress.ScheduledLevels(round, n.cfg.MinLevels, n.cfg.MaxLevels, n.cfg.LevelDoubleEvery)
		lv := int(float64(base)*mult + 0.5)
		if lv < n.cfg.MinLevels {
			lv = n.cfg.MinLevels
		}
		if lv > n.cfg.MaxLevels {
			lv = n.cfg.MaxLevels
		}
		a.Levels = lv
	}
	ls := n.link(id)
	ls.LastRatio = a.Ratio
	ls.LastCodec = a.Codec
	ls.Assigned++
	return a
}

// Assign produces the round's assignments for a utility-ranked plan
// (client → planned ratio; entries at ratio 0 are withheld and skipped).
// bw returns the client's bandwidth multiplier for this round (the
// scenario's class×trace product; nil or non-positive values mean 1).
// Clients are processed in ascending id order so link-state mutation
// order — and therefore the whole session — replays deterministically.
func (n *Negotiator) Assign(round int, plan map[int]float64, bw func(int) float64) map[int]CodecAssignment {
	ids := make([]int, 0, len(plan))
	for id, ratio := range plan {
		if ratio > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)

	// Fleet-mean EWMA for the byte-pressure term.
	mean, cnt := 0.0, 0
	for _, id := range ids {
		if ls := n.links[id]; ls != nil && ls.EWMABytes > 0 {
			mean += ls.EWMABytes
			cnt++
		}
	}
	if cnt > 0 {
		mean /= float64(cnt)
	}

	out := make(map[int]CodecAssignment, len(ids))
	for _, id := range ids {
		mult := 1.0
		if bw != nil {
			if m := bw(id); m > 0 && !math.IsNaN(m) && !math.IsInf(m, 0) {
				mult = m
			}
		}
		// A throttled link (mult < 1) deepens compression with the square
		// root of the collapse, a fat one relaxes it the same way: the
		// linear response over-compresses on deep collapses — once the
		// message is small next to the model broadcast, extra depth stops
		// buying transfer time but keeps costing gradient mass.
		eff := plan[id] / math.Sqrt(mult)
		// Byte pressure: clients observed uploading more than the fleet
		// mean get pushed a little deeper, heavy-tailed senders first.
		if ls := n.links[id]; ls != nil && mean > 0 && ls.EWMABytes > 0 {
			p := math.Sqrt(ls.EWMABytes / mean)
			if p < 0.75 {
				p = 0.75
			}
			if p > 1.5 {
				p = 1.5
			}
			eff *= p
		}
		out[id] = n.assignOne(round, id, eff, mult)
	}
	return out
}

// AssignByLoad is the edge-tier entry point: with no utility ranking or
// scenario fleet at hand, the roster is ranked by observed uplink volume
// (lightest first) and controller ratios are assigned by rank, so the
// heaviest senders compress deepest. Ties (including the all-zero first
// round) break by ascending id, keeping the edge deterministic too.
func (n *Negotiator) AssignByLoad(round int, ids []int) map[int]CodecAssignment {
	ranked := append([]int(nil), ids...)
	sort.Slice(ranked, func(i, j int) bool {
		bi, bj := 0.0, 0.0
		if ls := n.links[ranked[i]]; ls != nil {
			bi = ls.EWMABytes
		}
		if ls := n.links[ranked[j]]; ls != nil {
			bj = ls.EWMABytes
		}
		if bi != bj {
			return bi < bj
		}
		return ranked[i] < ranked[j]
	})
	out := make(map[int]CodecAssignment, len(ranked))
	for rank, id := range ranked {
		ratio := n.ctrl.RatioForRank(rank, len(ranked), round)
		out[id] = n.assignOne(round, id, ratio, 1)
	}
	return out
}

// Snapshot returns a checkpointable copy of the negotiator's state.
func (n *Negotiator) Snapshot() *NegotiationState {
	st := &NegotiationState{Config: n.cfg, Links: make(map[int]LinkState, len(n.links))}
	for id, ls := range n.links {
		st.Links[id] = *ls
	}
	return st
}

// Restore loads a checkpointed state. It refuses a config mismatch: the
// assignment stream is a pure function of (config, history), so resuming
// under different knobs would silently diverge from the uninterrupted
// run the golden tests compare against.
func (n *Negotiator) Restore(st *NegotiationState) error {
	if st == nil {
		return fmt.Errorf("core: nil negotiation state")
	}
	if st.Config != n.cfg {
		return fmt.Errorf("core: negotiation config mismatch: checkpoint %+v, configured %+v", st.Config, n.cfg)
	}
	n.links = make(map[int]*LinkState, len(st.Links))
	for id, ls := range st.Links {
		cp := ls
		n.links[id] = &cp
	}
	return nil
}
