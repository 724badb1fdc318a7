package rpc

import "adafl/internal/shard"

// QuarantineRecord documents one rejected client update: which client,
// which round, why, and the update's L2 norm (0 for structural rejects,
// where the norm is not trustworthy). Quarantined updates are never
// aggregated; the offending client is evicted exactly like a straggler,
// so its weight leaves the FedAvg renormalisation, and may re-register
// at a later round boundary.
//
// The type is internal/shard's record, produced by the shared integrity
// screen (shard.Screen); gob encodes it structurally, so checkpoints from
// before the shared type restore unchanged.
type QuarantineRecord = shard.QuarantineRecord
