package session

import "adafl/internal/obs"

// StalenessBuckets is the bucket layout of adafl_async_staleness:
// staleness is a small version delta, so linear unit buckets resolve the
// whole useful range (a 5× straggler against K fresh peers lands well
// under 20).
var StalenessBuckets = obs.LinearBuckets(0, 1, 20)

// asyncMetrics is the async engine's instrument set, one series family
// per session via the session="..." label (obs.WithLabel). Nil-registry
// instruments are nil and every record is a no-op. The registration,
// reconnect and connection series are the roster's (rpc.Roster.Instrument), the checkpoint
// series checkpoint.Reporter's.
type asyncMetrics struct {
	versions    *obs.Counter   // adafl_async_versions_total
	pulls       *obs.Counter   // adafl_async_pulls_total
	pushes      *obs.Counter   // adafl_async_pushes_total
	stale       *obs.Counter   // adafl_async_stale_rejected_total
	staleness   *obs.Histogram // adafl_async_staleness (accepted pushes)
	quarantines *obs.Counter   // adafl_quarantines_total
	accuracy    *obs.Gauge     // adafl_round_accuracy (per version)
}

func newAsyncMetrics(r *obs.Registry, session string) asyncMetrics {
	l := func(name string) string { return obs.WithLabel(name, "session", session) }
	return asyncMetrics{
		versions:    r.Counter(l("adafl_async_versions_total")),
		pulls:       r.Counter(l("adafl_async_pulls_total")),
		pushes:      r.Counter(l("adafl_async_pushes_total")),
		stale:       r.Counter(l("adafl_async_stale_rejected_total")),
		staleness:   r.Histogram(l("adafl_async_staleness"), StalenessBuckets),
		quarantines: r.Counter(l("adafl_quarantines_total")),
		accuracy:    r.Gauge(l("adafl_round_accuracy")),
	}
}
