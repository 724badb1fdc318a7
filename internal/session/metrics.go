package session

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"adafl/internal/checkpoint"
	"adafl/internal/obs"
)

// StalenessBuckets is the bucket layout of adafl_async_staleness:
// staleness is a small version delta, so linear unit buckets resolve the
// whole useful range (a 5× straggler against K fresh peers lands well
// under 20).
var StalenessBuckets = obs.LinearBuckets(0, 1, 20)

// asyncMetrics is the async engine's instrument set, one series family
// per session via the session="..." label (obs.WithLabel). Nil-registry
// instruments are nil and every record is a no-op.
type asyncMetrics struct {
	versions      *obs.Counter   // adafl_async_versions_total
	pulls         *obs.Counter   // adafl_async_pulls_total
	pushes        *obs.Counter   // adafl_async_pushes_total
	stale         *obs.Counter   // adafl_async_stale_rejected_total
	staleness     *obs.Histogram // adafl_async_staleness (accepted pushes)
	quarantines   *obs.Counter   // adafl_quarantines_total
	registrations *obs.Counter   // adafl_registrations_total
	reconnects    *obs.Counter   // adafl_reconnects_total
	connections   *obs.Gauge     // adafl_connections
	accuracy      *obs.Gauge     // adafl_round_accuracy (per version)
	ckptSec       *obs.Histogram // adafl_checkpoint_seconds (capturing and writing one epoch, wherever it ran)
	ckptWaitSec   *obs.Histogram // adafl_checkpoint_wait_seconds (engine loop blocked joining an epoch)
	ckptBytes     *obs.Gauge     // adafl_checkpoint_bytes (delta epoch size)
}

func newAsyncMetrics(r *obs.Registry, session string) asyncMetrics {
	l := func(name string) string { return obs.WithLabel(name, "session", session) }
	return asyncMetrics{
		versions:      r.Counter(l("adafl_async_versions_total")),
		pulls:         r.Counter(l("adafl_async_pulls_total")),
		pushes:        r.Counter(l("adafl_async_pushes_total")),
		stale:         r.Counter(l("adafl_async_stale_rejected_total")),
		staleness:     r.Histogram(l("adafl_async_staleness"), StalenessBuckets),
		quarantines:   r.Counter(l("adafl_quarantines_total")),
		registrations: r.Counter(l("adafl_registrations_total")),
		reconnects:    r.Counter(l("adafl_reconnects_total")),
		connections:   r.Gauge(l("adafl_connections")),
		accuracy:      r.Gauge(l("adafl_round_accuracy")),
		ckptSec:       r.Histogram(l("adafl_checkpoint_seconds"), obs.LatencyBuckets),
		ckptWaitSec:   r.Histogram(l("adafl_checkpoint_wait_seconds"), obs.LatencyBuckets),
		ckptBytes:     r.Gauge(l("adafl_checkpoint_bytes")),
	}
}

// Delta-checkpoint section names, shared with the sync engine's layout
// (internal/rpc uses the same literals): "meta" is engine-specific gob,
// "global" the fixed-width model vector, "round" a bare little-endian
// u64 the doctor reads without knowing the engine's types.
const (
	secMeta   = "meta"
	secGlobal = "global"
	secRound  = "round"
)

// captureAsyncSnapshot writes an async snapshot's sections into the epoch
// w has open; the bytes are the writer's once it returns.
func captureAsyncSnapshot(w *checkpoint.DeltaWriter, snap *asyncSnapshot, params []float64) error {
	if err := gob.NewEncoder(w.Section(secMeta)).Encode(snap); err != nil {
		return err
	}
	w.F64s(secGlobal, params)
	var round [8]byte
	binary.LittleEndian.PutUint64(round[:], uint64(snap.Version))
	w.Section(secRound).Write(round[:])
	return nil
}

// decodeAsyncSnapshot is the inverse; it returns the meta snapshot and
// the restored global vector.
func decodeAsyncSnapshot(sections []checkpoint.Section) (*asyncSnapshot, []float64, error) {
	byName := make(map[string][]byte, len(sections))
	for _, sec := range sections {
		byName[sec.Name] = sec.Data
	}
	for _, name := range []string{secMeta, secGlobal, secRound} {
		if _, ok := byName[name]; !ok {
			return nil, nil, fmt.Errorf("delta checkpoint is missing section %q", name)
		}
	}
	var snap asyncSnapshot
	if err := gob.NewDecoder(bytes.NewReader(byName[secMeta])).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("delta checkpoint meta: %w", err)
	}
	params, err := checkpoint.F64sFromBytes(byName[secGlobal])
	if err != nil {
		return nil, nil, fmt.Errorf("delta checkpoint global: %w", err)
	}
	if rb := byName[secRound]; len(rb) != 8 {
		return nil, nil, fmt.Errorf("delta checkpoint round section is %d bytes, want 8", len(rb))
	} else if got := binary.LittleEndian.Uint64(rb); got != uint64(snap.Version) {
		return nil, nil, fmt.Errorf("delta checkpoint round section %d disagrees with meta version %d", got, snap.Version)
	}
	return &snap, params, nil
}
