package checkpoint

import "adafl/internal/obs"

// Reporter accounts for the snapshots an engine's loop joins. The write runs
// behind the next round, but the loop is the only writer of the event log,
// so each snapshot is reported from the loop, at the join, under its own
// label: the three checkpoint series, a "checkpoint" event, and the engine's
// log line for a failed write. Every engine (flat server, async session,
// root) holds one.
type Reporter struct {
	sec     *obs.Histogram // adafl_checkpoint_seconds: capture plus write, wherever it ran
	waitSec *obs.Histogram // adafl_checkpoint_wait_seconds: the loop blocked joining it
	bytes   *obs.Gauge     // adafl_checkpoint_bytes: the file's size on disk
	events  *obs.EventLog
	failed  func(label int, err error)
}

// NewReporter resolves the series (under a session label when session is
// non-empty; a nil registry makes them no-ops). failed logs a write that
// failed; the session continues either way.
func NewReporter(reg *obs.Registry, session string, events *obs.EventLog, failed func(label int, err error)) *Reporter {
	l := func(name string) string { return obs.WithLabel(name, "session", session) }
	return &Reporter{
		sec:     reg.Histogram(l("adafl_checkpoint_seconds"), obs.LatencyBuckets),
		waitSec: reg.Histogram(l("adafl_checkpoint_wait_seconds"), obs.LatencyBuckets),
		bytes:   reg.Gauge(l("adafl_checkpoint_bytes")),
		events:  events,
		failed:  failed,
	}
}

// Joined reports what a Snapshot or Wait joined, if anything: how long the
// loop blocked for it (≈ 0 when the pipeline hid the write) and its outcome.
func (r *Reporter) Joined(res DeltaResult, ok bool) {
	if !ok {
		return
	}
	r.waitSec.Observe(res.WaitSeconds)
	if res.Err != nil {
		r.failed(res.Label, res.Err)
		return
	}
	r.sec.Observe(res.Seconds)
	r.bytes.Set(float64(res.Size))
	r.events.Emit(obs.Event{Type: "checkpoint", Round: res.Label, Client: -1, Bytes: res.Size, Seconds: res.Seconds})
}

// Join is every engine's last checkpoint step: it joins w's snapshot in
// flight, if any, reports it and flushes the event log, so the snapshot's
// "checkpoint" event is durable when Join returns. It returns the flush's
// error for the engine to log under its own prefix; with no writer (a
// session without a checkpoint directory) it does nothing.
func (r *Reporter) Join(w *DeltaWriter) error {
	if w == nil {
		return nil
	}
	r.Joined(w.Wait())
	return r.events.Flush()
}
