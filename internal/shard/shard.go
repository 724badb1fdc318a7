// Package shard implements sharded hierarchical streaming aggregation:
// a configurable tree in which client updates stream into S in-process
// shard workers that fold each sparse update into a running partial
// aggregate the moment it arrives, and a root reducer merges the S
// partials with exact weight renormalisation at the round barrier.
//
// The buffered server aggregation holds every update of a round in
// memory and applies them once at the barrier — O(clients) memory and
// one goroutine of CPU. The tree replaces that with S dense partials
// (constant memory per shard: a running weighted-sum vector plus a
// weight scalar, and SCAFFOLD control partials where foldable) and S
// cores of fold throughput, which is what lets one server absorb
// 10k-client fleets: at dim 20000 / nnz 1000, going from 1k to 10k clients
// cost the tree 1.4x heap (12.7 to 17.4 MB) where a whole-round buffer cost
// 8x (cmd/flfleet; tracked since as bench/'s shard.tree_ingest_updates_per_s
// and fleet_ingest.peak_rss_mb).
//
// Determinism contract: routing is client-id mod S, each worker folds
// its queue in FIFO order, and the root merges partials in ascending
// shard order. For a fixed shard count and a fixed per-shard arrival
// order the result is therefore bit-for-bit reproducible; with S=1 it
// is bitwise identical to the buffered two-phase FedAvg. Changing S (or
// interleaving arrivals differently across clients of the same shard)
// reassociates floating-point sums and changes results only within the
// usual accumulation tolerance. See DESIGN.md §Sharded aggregation.
//
// Integrity runs inside the shards: each update is structurally
// validated exactly once at fold time, scrubbed of non-finite values,
// and judged by a causal median-relative norm gate; rejects surface as
// QuarantineRecords at the barrier so the caller can evict the sender.
//
// Backpressure is per shard: each worker owns a bounded channel, and an
// Ingest into a full queue blocks the ingesting (per-client) goroutine
// — slow shards throttle their own clients instead of buffering without
// bound. Blocked enqueues are counted in adafl_shard_backpressure_total.
package shard

import (
	"fmt"
	"time"

	"adafl/internal/obs"
)

// DefaultQueueDepth bounds each shard's ingest queue when the caller
// does not configure one.
const DefaultQueueDepth = 128

// Config configures a Tree.
type Config struct {
	// Shards is S, the number of fold workers (≥ 1).
	Shards int
	// Dim is the model dimension every update must validate against.
	Dim int
	// QueueDepth is the per-shard ingest queue bound; 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// Unweighted folds every update with scale 1 (SCAFFOLD) instead of
	// its Weight (FedAvg/FedAdam).
	Unweighted bool
	// MaxNormMult enables the causal norm gate: an update whose L2 norm
	// exceeds MaxNormMult times the median of the norms its shard has
	// already accepted this round is quarantined. 0 disables the gate.
	MaxNormMult float64
	// Metrics, when non-nil, receives the shard-labelled instrument set
	// (queue depth, fold latency, received/evicted counts, backpressure).
	// Nil disables metrics at zero cost.
	Metrics *obs.Registry
	// Logf receives scrub notices; nil discards them.
	Logf Logf
}

// Tree is an S-shard streaming aggregation tree. Ingest may be called
// from many goroutines concurrently; Finish, Snapshot, Restore and
// Close require that no Ingest is in flight (the engines call them at
// the round barrier, after every collector has reported).
type Tree struct {
	cfg     Config
	workers []*worker
	met     treeMetrics
	closed  bool

	// testFoldDelay stalls every fold; tests use it to force a full
	// queue and observe backpressure deterministically.
	testFoldDelay time.Duration
}

// NewTree validates cfg, starts the S workers and returns the tree.
// Callers must Close it to reclaim the worker goroutines.
func NewTree(cfg Config) *Tree {
	if cfg.Shards < 1 {
		panic("shard: need at least one shard")
	}
	if cfg.Dim <= 0 {
		panic("shard: need a positive model dimension")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	t := &Tree{cfg: cfg, met: newTreeMetrics(cfg.Metrics)}
	for i := 0; i < cfg.Shards; i++ {
		w := &worker{
			id:   i,
			ch:   make(chan message, cfg.QueueDepth),
			done: make(chan struct{}),
			part: NewPartial(cfg.Dim),
			gate: onlineGate{mult: cfg.MaxNormMult},
			met:  newShardMetrics(cfg.Metrics, i),
		}
		t.workers = append(t.workers, w)
		go w.run(t)
	}
	return t
}

// Route returns the shard index an update from the given client folds
// into. The mapping (client mod S, shifted into range for negative ids)
// is part of the determinism contract: a fixed fleet always shards the
// same way.
func (t *Tree) Route(client int) int {
	s := len(t.workers)
	return ((client % s) + s) % s
}

type ctlOp int

const (
	opFold     ctlOp = iota
	opFinish         // drain, report, reset for the next round
	opSnapshot       // drain, report a deep copy, keep state
	opRestore        // replace partial + gate state
)

type message struct {
	op    ctlOp
	round int
	upd   Update
	state *ShardState       // opRestore
	reply chan workerReport // opFinish/opSnapshot
}

type workerReport struct {
	part  *Partial
	norms []float64
	quars []QuarantineRecord
}

// Ingest routes one update to its shard, blocking when that shard's
// queue is full (counted as backpressure). round tags any quarantine
// record the update may produce.
func (t *Tree) Ingest(round int, u Update) {
	w := t.workers[t.Route(u.Client)]
	m := message{op: opFold, round: round, upd: u}
	select {
	case w.ch <- m:
	default:
		t.met.backpressure.Inc()
		w.ch <- m
	}
	w.met.queueDepth.Set(float64(len(w.ch)))
}

// Finish is the round barrier: it waits for every queued update to
// fold, merges the S partials in ascending shard order, collects the
// round's quarantine records (ordered by shard, then fold order) and
// resets every worker for the next round. The returned Partial is owned
// by the caller.
func (t *Tree) Finish() (*Partial, []QuarantineRecord) {
	reports := t.collect(opFinish)
	start := time.Now()
	root := NewPartial(t.cfg.Dim)
	var quars []QuarantineRecord
	for _, rep := range reports {
		root.Merge(rep.part)
		quars = append(quars, rep.quars...)
	}
	t.met.mergeSec.Observe(time.Since(start).Seconds())
	return root, quars
}

// Snapshot captures the mid-tree state — every shard's partial and norm
// gate — without disturbing the round in progress, so a checkpoint can
// restore partially-folded rounds. Quarantine records are not part of
// the snapshot; they are reported (once) at Finish.
func (t *Tree) Snapshot() *TreeState {
	reports := t.collect(opSnapshot)
	st := &TreeState{Shards: len(t.workers), Dim: t.cfg.Dim}
	for _, rep := range reports {
		st.Partials = append(st.Partials, ShardState{
			Sum:       rep.part.Sum,
			WeightSum: rep.part.WeightSum,
			Count:     rep.part.Count,
			CtrlSum:   rep.part.CtrlSum,
			CtrlCount: rep.part.CtrlCount,
			Norms:     rep.norms,
		})
	}
	return st
}

// Restore replaces the tree's mid-round state with a snapshot taken by
// a tree of the same geometry (shard count and dimension).
func (t *Tree) Restore(st *TreeState) error {
	if st == nil {
		return nil
	}
	if st.Shards != len(t.workers) {
		return fmt.Errorf("shard: snapshot has %d shards, tree has %d (restart with the same -shards)",
			st.Shards, len(t.workers))
	}
	if st.Dim != t.cfg.Dim {
		return fmt.Errorf("shard: snapshot dimension %d, tree dimension %d", st.Dim, t.cfg.Dim)
	}
	if len(st.Partials) != st.Shards {
		return fmt.Errorf("shard: snapshot carries %d partials for %d shards", len(st.Partials), st.Shards)
	}
	for i, w := range t.workers {
		s := st.Partials[i]
		if len(s.Sum) != t.cfg.Dim || (s.CtrlSum != nil && len(s.CtrlSum) != t.cfg.Dim) {
			return fmt.Errorf("shard: snapshot partial %d has inconsistent vector lengths", i)
		}
		sc := s // per-worker copy
		w.ch <- message{op: opRestore, state: &sc}
	}
	return nil
}

// collect sends op to every worker and gathers the reports in shard
// order. The per-worker FIFO guarantees all previously queued folds
// complete first.
func (t *Tree) collect(op ctlOp) []workerReport {
	replies := make([]chan workerReport, len(t.workers))
	for i, w := range t.workers {
		replies[i] = make(chan workerReport, 1)
		w.ch <- message{op: op, reply: replies[i]}
	}
	out := make([]workerReport, len(t.workers))
	for i, ch := range replies {
		out[i] = <-ch
	}
	return out
}

// Close drains the workers and reclaims their goroutines. The tree must
// not be used afterwards. Close is idempotent.
func (t *Tree) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, w := range t.workers {
		close(w.ch)
	}
	for _, w := range t.workers {
		<-w.done
	}
}

// TreeState is the gob-serialisable snapshot of a tree's mid-round
// state; it joins the session checkpoint so -resume restores mid-tree
// partials.
type TreeState struct {
	Shards   int
	Dim      int
	Partials []ShardState
}

// ShardState is one shard's snapshot: its partial aggregate plus the
// accepted-norm history backing the causal norm gate.
type ShardState struct {
	Sum       []float64
	WeightSum float64
	Count     int
	CtrlSum   []float64
	CtrlCount int
	Norms     []float64
}

// worker owns one shard: a bounded FIFO queue and the state folded from
// it. All fields below ch/done are touched only by the worker goroutine.
type worker struct {
	id   int
	ch   chan message
	done chan struct{}

	part  *Partial
	gate  onlineGate
	quars []QuarantineRecord
	met   shardMetrics
}

func (w *worker) run(t *Tree) {
	defer close(w.done)
	timed := w.met.foldSec != nil
	for m := range w.ch {
		switch m.op {
		case opFold:
			if t.testFoldDelay > 0 {
				time.Sleep(t.testFoldDelay)
			}
			if timed {
				start := time.Now()
				w.fold(m.round, m.upd, &t.cfg)
				w.met.foldSec.Observe(time.Since(start).Seconds())
			} else {
				w.fold(m.round, m.upd, &t.cfg)
			}
			w.met.queueDepth.Set(float64(len(w.ch)))
		case opFinish:
			m.reply <- workerReport{part: w.part, quars: w.quars}
			w.part = NewPartial(t.cfg.Dim)
			w.gate.reset()
			w.quars = nil
			// The barrier guarantees no folds are in flight; reset the
			// depth gauge so a control message is not read as backlog.
			w.met.queueDepth.Set(0)
		case opSnapshot:
			m.reply <- workerReport{
				part:  w.part.Clone(),
				norms: append([]float64(nil), w.gate.norms...),
			}
		case opRestore:
			s := m.state
			w.part = &Partial{Dim: t.cfg.Dim,
				Sum:       append([]float64(nil), s.Sum...),
				WeightSum: s.WeightSum, Count: s.Count, CtrlCount: s.CtrlCount}
			if s.CtrlSum != nil {
				w.part.CtrlSum = append([]float64(nil), s.CtrlSum...)
			}
			w.gate.norms = append(w.gate.norms[:0], s.Norms...)
			w.quars = nil
		}
	}
}

// fold runs the streaming integrity screen and folds survivors. Each
// update is validated exactly once, here.
func (w *worker) fold(round int, u Update, cfg *Config) {
	w.met.received.Inc()
	if err := u.Delta.Validate(cfg.Dim); err != nil {
		w.reject(round, u.Client, err.Error(), 0)
		return
	}
	if n := u.Delta.Scrub(); n > 0 {
		if n == u.Delta.NNZ() {
			w.reject(round, u.Client, fmt.Sprintf("update entirely non-finite (%d values)", n), 0)
			return
		}
		cfg.Logf("shard %d: round %d: scrubbed %d non-finite values from client %d",
			w.id, round+1, n, u.Client)
	}
	if cfg.MaxNormMult > 0 {
		norm := u.Delta.Norm2()
		if ok, med := w.gate.admit(norm); !ok {
			w.reject(round, u.Client,
				fmt.Sprintf("L2 norm %.4g exceeds %.4g (%.3g x shard median %.4g)",
					norm, cfg.MaxNormMult*med, cfg.MaxNormMult, med), norm)
			return
		}
	}
	w.part.Fold(u, cfg.Unweighted)
}

func (w *worker) reject(round, client int, reason string, norm float64) {
	w.met.evicted.Inc()
	w.quars = append(w.quars, QuarantineRecord{Round: round, ClientID: client, Reason: reason, Norm: norm})
}
