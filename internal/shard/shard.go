// Package shard implements the aggregation tree every engine folds
// through: client updates are routed to S shards, each update is folded
// into its shard's running partial aggregate in the goroutine that
// ingests it, and the barrier merges the S partials with exact weight
// renormalisation.
//
// The buffered server aggregation holds every update of a round in
// memory and applies them once at the barrier — O(clients) memory. The
// tree replaces that with S dense partials (constant memory per shard: a
// running weighted-sum vector plus a weight scalar, and SCAFFOLD control
// partials where foldable), which is what lets one server absorb
// 10k-client fleets: at dim 20000 / nnz 1000, going from 1k to 10k clients
// cost the tree 1.4x heap (12.7 to 17.4 MB) where a whole-round buffer cost
// 8x (cmd/flfleet; tracked since as bench/'s shard.tree_ingest_updates_per_s
// and fleet_ingest.peak_rss_mb). Each shard is a stripe under its own
// lock, so producers on different shards fold in parallel; the tree starts
// no goroutine and, with the norm gate off, keeps nothing of an update
// once Ingest returns.
//
// Determinism contract: a Partial accumulates in int64 fixed point (each
// product w·Δⱼ rounded once to 2⁻⁵⁰), so every fold and merge is integer
// addition. The merged result is the same bits for any shard count, any
// routing, any fold order and any arrival order, and converts to float64
// once, at apply (Partial.AddTo). The window is part of the contract: an
// update with a product of 2⁶ or more is quarantined by name, and an
// aggregate whose bound reaches 2¹³ is never applied. See DESIGN.md
// §Sharded aggregation.
//
// Integrity is one rule for every engine: each update is structurally
// validated, scrubbed of non-finite values and checked against the fold
// window by one Check pass on arrival, and folded at once; at the barrier
// one median-relative norm gate (judge) judges the round and the fold
// takes back exactly what it quarantines. Rejects surface as
// QuarantineRecords at the barrier so the caller can evict the sender.
package shard

import (
	"sync"
	"time"

	"adafl/internal/obs"
)

// Config configures a Tree.
type Config struct {
	// Shards is S, the number of shards (≥ 1).
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
	// Metrics, when non-nil, receives the shard-labelled instrument set
	// (fold and merge latency, received/evicted counts). Nil disables
	// metrics at zero cost.
	Metrics *obs.Registry
	// Logf receives scrub notices; nil discards them.
	Logf Logf
}

// Tree is an S-shard aggregation tree. Ingest may be called from many
// goroutines concurrently; Finish must not overlap an Ingest (the engines
// call it at the round barrier, after every producer has returned).
type Tree struct {
	cfg      Config
	stripes  []stripe
	root     *Partial       // Finish's result, reused round after round
	held     []held         // Finish's gather of the stripes' held updates, reused
	mergeSec *obs.Histogram // adafl_shard_merge_seconds
}

// stripe is one shard: the partial, the updates held for the norm gate
// and the quarantine records folded from the updates routed to it, all
// guarded by mu.
type stripe struct {
	mu    sync.Mutex
	part  *Partial
	held  []held
	quars []QuarantineRecord
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
		root:     NewPartial(cfg.Dim),
		mergeSec: cfg.Metrics.Histogram("adafl_shard_merge_seconds", obs.LatencyBuckets),
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.part = NewPartial(cfg.Dim)
		st.met = newShardMetrics(cfg.Metrics, i)
	}
	return t
}

// Route returns the shard index an update from the given client folds
// into: client mod S, shifted into range for negative ids. The norm gate
// judges the whole round at Finish, so neither the folded bits nor the
// quarantine decisions depend on the mapping.
func (t *Tree) Route(client int) int {
	s := len(t.stripes)
	return ((client % s) + s) % s
}

// Ingest checks one update and folds it into its shard in the caller's
// goroutine; only the fold runs under the shard's lock. With the gate off
// it keeps nothing of u after it returns; with it on it holds u until
// Finish (Config.MaxNormMult). round tags any quarantine record the
// update produces.
func (t *Tree) Ingest(round int, u Update) {
	i := t.Route(u.Client)
	st := &t.stripes[i]
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
	switch {
	case reason != "":
		st.met.evicted.Inc()
		st.quars = append(st.quars, QuarantineRecord{Round: round, ClientID: u.Client, Reason: reason})
	case t.cfg.MaxNormMult > 0:
		st.held = append(st.held, held{round: round, norm: norm, u: u})
		fallthrough
	default:
		st.part.fold(u, false)
	}
	st.mu.Unlock()
	if reason == "" && st.met.foldSec != nil {
		st.met.foldSec.Observe(time.Since(start).Seconds())
	}
	if scrubbed > 0 {
		t.cfg.Logf("shard %d: round %d: scrubbed %d non-finite values from client %d",
			i, round+1, scrubbed, u.Client)
	}
}

// Finish is the round barrier: it merges the S partials, judges the
// round's held updates (judge) and subtracts the ones it quarantines, and
// resets every shard for the next round. The records come back in client
// order, structural and window rejects before norm rejects, so neither
// the arrival order nor the shard count shows in them. The returned
// Partial belongs to the tree and is valid until the next Finish; the
// records belong to the caller.
func (t *Tree) Finish() (*Partial, []QuarantineRecord) {
	start := time.Now()
	t.root.Reset()
	var quars []QuarantineRecord
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		t.root.Merge(st.part)
		quars = append(quars, st.quars...)
		t.held = append(t.held, st.held...)
		st.part.Reset()
		clear(st.held) // hold no update past its round
		st.held = st.held[:0]
		st.quars = st.quars[:0]
		st.mu.Unlock()
	}
	quars, cut := judge(t.cfg.MaxNormMult, quars, t.held)
	for _, h := range t.held[cut:] {
		// Integer addition commutes, so taking the update out of the
		// merged partial leaves what taking it out of its shard would.
		t.root.unfold(h.u)
		t.stripes[t.Route(h.u.Client)].met.evicted.Inc()
	}
	clear(t.held)
	t.held = t.held[:0]
	t.mergeSec.Observe(time.Since(start).Seconds())
	return t.root, quars
}

// Close is a no-op: the tree holds no goroutine or other resource to
// release. It remains because bench/'s probes call it.
func (t *Tree) Close() {}
