package session

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"

	"adafl/internal/checkpoint"
	"adafl/internal/obs"
)

// DoctorReport is the outcome of an offline checkpoint/event-log audit.
type DoctorReport struct {
	// Round is the snapshot's completed round / model version, its bare
	// label; -1 when the snapshot could not be read.
	Round int
	// Size is the snapshot file's size on disk.
	Size int64
	// Events is the number of event-log records examined (0 when no log
	// was given).
	Events int
	// Problems lists every inconsistency found; empty means healthy.
	Problems []string
}

// Healthy reports whether the audit found no problems.
func (r *DoctorReport) Healthy() bool { return len(r.Problems) == 0 }

// Doctor audits a checkpoint directory — a sync server's, an async
// session's or a root's, they share one layout — and, when eventPath is
// non-empty, its JSONL event log, offline:
//
//   - the snapshot: the file's frame CRC and section table, the snapshot
//     layout (checkpoint.ReadSnapshot) and a "global" vector.
//   - event log: round/version records must advance gaplessly (each
//     distinct value one above the previous; duplicates allowed — a
//     crash between checkpoint and re-run replays a round), and the
//     checkpoint's round must sit at the log's tail: at most one mark
//     ahead of it, and — the pipelined writer's bound — at most one
//     behind.
//
// Problems are findings, not errors: the error return is reserved for
// the audit itself being impossible (no snapshot at all, which is also
// what a directory holding only an older binary's delta-*.ckpt chain
// has). Callers gate exit codes on report.Healthy().
func Doctor(dir, eventPath string, w io.Writer) (*DoctorReport, error) {
	if w == nil {
		w = io.Discard
	}
	rep := &DoctorReport{Round: -1}
	snap, err := checkpoint.ReadSnapshot(dir)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("no checkpoint in %s", dir)
	case err != nil:
		rep.Problems = append(rep.Problems, fmt.Sprintf("snapshot: %v", err))
	default:
		rep.Round, rep.Size = snap.Round, snap.Size
		fmt.Fprintf(w, "doctor: snapshot in %s: %d bytes, round/version %d\n", dir, snap.Size, snap.Round)
		if snap.VectorLen("global") < 0 {
			rep.Problems = append(rep.Problems, `snapshot has no fixed-width "global" section`)
		}
	}
	if eventPath != "" {
		auditEvents(eventPath, rep, w)
	}
	if rep.Healthy() {
		fmt.Fprintf(w, "doctor: checkpoint in %s is consistent\n", dir)
	} else {
		for _, p := range rep.Problems {
			fmt.Fprintf(w, "doctor: PROBLEM: %s\n", p)
		}
	}
	return rep, nil
}

// auditEvents checks the event log's round continuity and its agreement
// with the checkpoint's round.
func auditEvents(path string, rep *DoctorReport, w io.Writer) {
	f, err := os.Open(path)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("event log: %v", err))
		return
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("event log: %v", err))
		return
	}
	rep.Events = len(events)
	// One record per completed round/version: the sync engine emits
	// "round", the async engine "version". Values must advance gaplessly;
	// an exact repeat is legal (a crash after the event flush but before
	// the checkpoint re-runs that round after resume).
	prev := -1
	gapless := true
	var rounds []int
	for _, e := range events {
		if e.Type != "round" && e.Type != "version" {
			continue
		}
		rounds = append(rounds, e.Round)
		if prev >= 0 && e.Round != prev && e.Round != prev+1 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("event log: round %d follows %d (gap or regression)", e.Round, prev))
			gapless = false
		}
		prev = e.Round
	}
	if gapless && len(rounds) > 0 {
		fmt.Fprintf(w, "doctor: event log: %d records, %d round/version marks, gapless %d..%d\n",
			len(events), len(rounds), rounds[0], prev)
	}
	if rep.Round >= 0 && len(rounds) > 0 {
		// Both engines number the mark and the checkpoint's "round" section
		// alike (the sync engine 0-based rounds, the async engine versions),
		// and both write the checkpoint behind the next round: round r's
		// snapshot is committed after r's mark is emitted, may land before
		// that mark is flushed, and is joined — durable — before round
		// r+1's snapshot begins and before Run returns. So the checkpoint
		// may lead the log by at most one mark, and after a hard crash it
		// may trail the log's last mark by one: the snapshot in flight is
		// lost, the one before it was joined before the last mark was
		// flushed. Trailing by two means a write failed ("failed
		// (continuing)" in the server log), and is reported.
		sorted := append([]int(nil), rounds...)
		sort.Ints(sorted)
		max := sorted[len(sorted)-1]
		if rep.Round > max+1 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("checkpoint round %d is ahead of the event log's last mark %d", rep.Round, max))
		}
		if max > rep.Round+1 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("event log reaches round %d but the checkpoint stopped at %d", max, rep.Round))
		}
	}
}
