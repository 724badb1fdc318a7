// Package shard implements the one fold every update in the program goes
// through: Tree.Ingest checks an update and folds it into a stripe's
// running partial aggregate in the goroutine that ingests it, and
// Tree.Finish, the barrier, merges the stripes with exact weight
// renormalisation.
//
// A buffered aggregation holds every update of a round in memory —
// O(clients). The tree holds S dense partials instead (per stripe a
// running weighted-sum vector, a weight scalar and SCAFFOLD control
// partials where foldable), constant in the fleet size: at dim 20000 /
// nnz 1000, 1k to 10k clients cost it 1.4x heap where a whole-round
// buffer cost 8x (bench/'s fleet_ingest.peak_rss_mb tracks it). The
// engines use one stripe (model-sized partials, at most K updates a
// round), the fleet harnesses one per core; an ingesting goroutine folds
// into the stripe its core folded into last, under that stripe's lock.
// The tree starts no goroutine and, with the norm gate off, keeps nothing
// of an update once Ingest returns.
//
// Determinism contract: a Partial accumulates in int64 fixed point (each
// product w·Δⱼ rounded once to 2⁻⁵⁰), so every fold and merge is integer
// addition. The merged result is the same bits for any stripe count, any
// stripe an update lands in, any fold order and any arrival order, and
// converts to float64 once, at apply (Partial.AddTo). The window is part
// of the contract: an update with a product of 2⁶ or more is quarantined
// by name, and an aggregate whose bound reaches 2¹³ is never applied. See
// DESIGN.md §Sharded aggregation.
//
// Integrity is one rule for every engine: each update is structurally
// validated, scrubbed of non-finite values and checked against the fold
// window by one Check pass on arrival, and folded at once; at the barrier
// one median-relative norm gate (judge) judges the round and the fold
// takes back exactly what it quarantines. Rejects surface as
// QuarantineRecords at the barrier so the caller can evict the sender.
package shard

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adafl/internal/obs"
)

// Config configures a Tree.
type Config struct {
	// Shards is S, the number of stripes (≥ 1).
	Shards int
	// Dim is the model dimension every update must validate against.
	Dim int
	// MaxNormMult enables the norm gate: at Finish, an update whose L2
	// norm exceeds MaxNormMult times the median norm of the round's
	// checked updates is quarantined and taken back out of the fold. 0
	// disables the gate. With the gate on, the tree holds each checked
	// update until Finish judges it, so an update ingested with
	// MaxNormMult > 0 must stay unmodified until Finish.
	MaxNormMult float64
	// Metrics, when non-nil, receives the stripe-labelled instrument set
	// (fold and merge latency, received/evicted counts). Nil disables
	// metrics at zero cost.
	Metrics *obs.Registry
	// Logf receives scrub notices; nil discards them.
	Logf Logf
}

// Tree is an S-stripe aggregation tree. Ingest may be called from many
// goroutines concurrently; Finish must not overlap an Ingest (the engines
// call it at the round barrier, after every producer has returned).
type Tree struct {
	cfg     Config
	stripes []stripe
	// pick hands an ingesting goroutine the stripe its core folded into
	// last (sync.Pool caches per P), keeping a stripe's 8·Dim bytes in one
	// core's cache; New deals stripes round-robin through next. One stripe
	// needs no pick, and a used pool keeps its tree alive for two GCs.
	pick     sync.Pool // *stripe
	next     atomic.Uint32
	mergeSec *obs.Histogram // adafl_shard_merge_seconds
}

// stripe is one shard: the partial, the updates held for the norm gate
// and the quarantine records of the updates folded into it, all under mu;
// Finish gathers the round's into stripe 0. spent marks stripe 0's partial
// as Finish's result: the next Ingest into it or Finish resets it first.
type stripe struct {
	mu    sync.Mutex
	part  *Partial
	held  []held
	quars []QuarantineRecord
	spent bool
	met   shardMetrics
}

// NewTree validates cfg and returns an empty tree.
func NewTree(cfg Config) *Tree {
	if cfg.Shards < 1 {
		panic("shard: need at least one shard")
	}
	if cfg.Dim <= 0 {
		panic("shard: need a positive model dimension")
	}
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	t := &Tree{
		cfg:      cfg,
		stripes:  make([]stripe, cfg.Shards),
		mergeSec: cfg.Metrics.Histogram("adafl_shard_merge_seconds", obs.LatencyBuckets),
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.part = NewPartial(cfg.Dim)
		st.met = newShardMetrics(cfg.Metrics, i)
	}
	t.pick.New = func() any { return &t.stripes[t.next.Add(1)%uint32(len(t.stripes))] }
	return t
}

// Ingest checks one update and folds it into a stripe (Tree.pick) in the
// caller's goroutine, only the fold under the stripe's lock. With the gate
// off it keeps nothing of u once it returns; with it on it holds u until
// Finish (Config.MaxNormMult). round tags u's quarantine record, if any.
func (t *Tree) Ingest(round int, u Update) {
	st := &t.stripes[0]
	if len(t.stripes) > 1 {
		st = t.pick.Get().(*stripe)
		defer t.pick.Put(st)
	}
	var start time.Time
	if st.met.foldSec != nil {
		start = time.Now()
	}
	st.met.received.Inc()
	scrubbed, reason := check(t.cfg.Dim, &u)
	var norm float64
	if reason == "" && t.cfg.MaxNormMult > 0 {
		norm = u.Delta.Norm2()
	}
	st.mu.Lock()
	if st.spent {
		st.part.Reset()
		st.spent = false
	}
	switch {
	case reason != "":
		st.met.evicted.Inc()
		st.quars = append(st.quars, QuarantineRecord{Round: round, ClientID: u.Client, Reason: reason})
	case t.cfg.MaxNormMult > 0:
		st.held = append(st.held, held{round: round, norm: norm, u: u})
		fallthrough
	default:
		st.part.fold(u)
	}
	st.mu.Unlock()
	if reason == "" && st.met.foldSec != nil {
		st.met.foldSec.Observe(time.Since(start).Seconds())
	}
	if scrubbed > 0 {
		t.cfg.Logf("shard: round %d: scrubbed %d non-finite values from client %d", round+1, scrubbed, u.Client)
	}
}

// Finish is the round barrier: it merges stripes 1…S−1 into stripe 0,
// judges the round's held updates there (judge) and subtracts the ones it
// quarantines. The records come back in client order, structural and
// window rejects before norm rejects, so neither the arrival order nor
// the stripe count shows in them. The returned Partial is stripe 0's own,
// valid until the next Ingest or Finish; the records belong to the caller.
func (t *Tree) Finish() (*Partial, []QuarantineRecord) {
	start := time.Now()
	s0 := &t.stripes[0]
	s0.mu.Lock()
	defer s0.mu.Unlock()
	if s0.spent {
		s0.part.Reset()
	}
	for i := 1; i < len(t.stripes); i++ {
		st := &t.stripes[i]
		st.mu.Lock()
		s0.part.Merge(st.part)
		st.part.Reset()
		s0.quars = append(s0.quars, st.quars...)
		s0.held = append(s0.held, st.held...)
		clear(st.held) // hold no update past its round
		st.held, st.quars = st.held[:0], st.quars[:0]
		st.mu.Unlock()
	}
	recs, cut := judge(t.cfg.MaxNormMult, s0.quars, s0.held)
	for _, h := range s0.held[cut:] {
		// Integer addition commutes, so taking the update out of the
		// merged partial leaves what taking it out of its stripe would.
		s0.part.unfold(h.u)
		s0.met.evicted.Inc()
	}
	clear(s0.held)
	s0.held, s0.quars, s0.spent = s0.held[:0], recs[:0], true
	t.mergeSec.Observe(time.Since(start).Seconds())
	return s0.part, slices.Clone(recs)
}

// Close is a no-op: the tree holds no goroutine or other resource to
// release. It remains because bench/'s probes call it.
func (t *Tree) Close() {}
