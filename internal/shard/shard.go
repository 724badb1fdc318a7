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
// no goroutine and keeps nothing of an update once Ingest returns.
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
// Integrity runs inside the shards: each update is structurally
// validated and scrubbed of non-finite values by one Check pass at fold
// time, checked against the fold window and judged by a causal
// median-relative norm gate; rejects surface as QuarantineRecords at the
// barrier so the caller can evict the sender.
package shard

import (
	"fmt"
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
	// MaxNormMult enables the causal norm gate: an update whose L2 norm
	// exceeds MaxNormMult times the median of the norms its shard has
	// already accepted this round is quarantined. 0 disables the gate.
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
	mergeSec *obs.Histogram // adafl_shard_merge_seconds
}

// stripe is one shard: the partial, norm gate and quarantine records
// folded from the updates routed to it, all guarded by mu.
type stripe struct {
	mu    sync.Mutex
	part  *Partial
	gate  onlineGate
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
		st.gate.mult = cfg.MaxNormMult
		st.met = newShardMetrics(cfg.Metrics, i)
	}
	return t
}

// Route returns the shard index an update from the given client folds
// into: client mod S, shifted into range for negative ids. The norm gate
// is per shard, so the mapping decides which updates judge each other;
// the folded bits do not depend on it.
func (t *Tree) Route(client int) int {
	s := len(t.stripes)
	return ((client % s) + s) % s
}

// Ingest folds one update into its shard in the caller's goroutine, under
// that shard's lock, and keeps nothing of u after it returns. round tags
// any quarantine record the update produces.
func (t *Tree) Ingest(round int, u Update) { t.ingest(round, u, false) }

// IngestScreened is Ingest for an update Screen kept, carrying the
// Item's MaxAbs: Screen has run its check and the fold window, so the
// shard folds it as it is, and it cannot be quarantined. The shard's
// metrics count it as they count an Ingest.
func (t *Tree) IngestScreened(u Update) { t.ingest(0, u, true) }

func (t *Tree) ingest(round int, u Update, screened bool) {
	i := t.Route(u.Client)
	st := &t.stripes[i]
	var scrubbed int
	st.mu.Lock()
	if st.met.foldSec == nil {
		scrubbed = st.fold(round, u, &t.cfg, screened)
	} else {
		start := time.Now()
		scrubbed = st.fold(round, u, &t.cfg, screened)
		st.met.foldSec.Observe(time.Since(start).Seconds())
	}
	st.mu.Unlock()
	if scrubbed > 0 {
		t.cfg.Logf("shard %d: round %d: scrubbed %d non-finite values from client %d",
			i, round+1, scrubbed, u.Client)
	}
}

// Finish is the round barrier: it merges the S partials, collects the
// round's quarantine records (ordered by shard, then fold order) and
// resets every shard for the next round. The returned Partial belongs to
// the tree and is valid until the next Finish; the records belong to the
// caller.
func (t *Tree) Finish() (*Partial, []QuarantineRecord) {
	start := time.Now()
	t.root.Reset()
	var quars []QuarantineRecord
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		t.root.Merge(st.part)
		quars = append(quars, st.quars...)
		st.part.Reset()
		st.gate.reset()
		st.quars = st.quars[:0]
		st.mu.Unlock()
	}
	t.mergeSec.Observe(time.Since(start).Seconds())
	return t.root, quars
}

// Close is a no-op: the tree holds no goroutine or other resource to
// release. It remains because bench/'s probes call it.
func (t *Tree) Close() {}

// fold runs the streaming integrity screen and folds survivors, returning
// how many non-finite values it scrubbed from an update it did not reject
// as wholly non-finite (Ingest logs them outside the lock). Each update
// is checked exactly once: here, or in the Screen that passed a screened
// one.
func (st *stripe) fold(round int, u Update, cfg *Config, screened bool) (scrubbed int) {
	st.met.received.Inc()
	if screened {
		st.part.fold(u, false)
		return 0
	}
	scrubbed, maxAbs, err := u.Delta.Check(cfg.Dim)
	if err != nil {
		st.reject(round, u.Client, err.Error(), 0)
		return 0
	}
	if scrubbed > 0 && scrubbed == u.Delta.NNZ() {
		st.reject(round, u.Client, fmt.Sprintf("update entirely non-finite (%d values)", scrubbed), 0)
		return 0
	}
	if err := windowErr(u.Weight, maxAbs); err != nil {
		st.reject(round, u.Client, err.Error(), 0)
		return scrubbed
	}
	u.MaxAbs = maxAbs
	if cfg.MaxNormMult > 0 {
		norm := u.Delta.Norm2()
		if ok, med := st.gate.admit(norm); !ok {
			st.reject(round, u.Client,
				fmt.Sprintf("L2 norm %.4g exceeds %.4g (%.3g x shard median %.4g)",
					norm, cfg.MaxNormMult*med, cfg.MaxNormMult, med), norm)
			return scrubbed
		}
	}
	st.part.fold(u, false)
	return scrubbed
}

func (st *stripe) reject(round, client int, reason string, norm float64) {
	st.met.evicted.Inc()
	st.quars = append(st.quars, QuarantineRecord{Round: round, ClientID: client, Reason: reason, Norm: norm})
}
