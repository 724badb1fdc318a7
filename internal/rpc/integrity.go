package rpc

import "adafl/internal/shard"

// QuarantineRecord documents one rejected client update: which client,
// which round, why, and the update's L2 norm (0 for structural rejects,
// where the norm is not trustworthy). A quarantined update leaves no trace
// in the aggregate; the offending client is evicted exactly like a straggler,
// so its weight leaves the FedAvg renormalisation, and may re-register
// at a later round boundary.
//
// The type is internal/shard's record, produced by the shard tree's
// integrity screen (checked on arrival, judged at the barrier); gob encodes
// it structurally, so checkpoints from before the shared type restore
// unchanged.
type QuarantineRecord = shard.QuarantineRecord
