package shard

import (
	"fmt"

	"adafl/internal/obs"
)

// FoldLatencyBuckets covers a single sparse fold: sub-microsecond for a
// small top-k message up to seconds if the ingesting goroutine is
// descheduled.
var FoldLatencyBuckets = obs.ExpBuckets(1e-6, 4, 14)

// shardMetrics is the per-stripe instrument set, labelled by stripe index
// (what the cores that picked the stripe folded, not a client set; the
// norm gate's evictions, judged in stripe 0, count there). A nil registry
// makes every instrument nil and recording a no-op (internal/obs), so an
// unobserved tree pays nothing. Tree has the tree-wide merge histogram.
//
// The catalogue, with types and label conventions, is documented in
// DESIGN.md §Sharded aggregation.
type shardMetrics struct {
	foldSec  *obs.Histogram // adafl_shard_fold_seconds{shard="i"}
	received *obs.Counter   // adafl_shard_received_total{shard="i"}
	evicted  *obs.Counter   // adafl_shard_evicted_total{shard="i"}
}

func newShardMetrics(r *obs.Registry, shard int) shardMetrics {
	label := fmt.Sprintf(`{shard="%d"}`, shard)
	return shardMetrics{
		foldSec:  r.Histogram("adafl_shard_fold_seconds"+label, FoldLatencyBuckets),
		received: r.Counter("adafl_shard_received_total" + label),
		evicted:  r.Counter("adafl_shard_evicted_total" + label),
	}
}
