package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

// Event is one structured record in the round-event log. Type is the
// discriminator; the remaining fields are populated per type:
//
//	selection   Round, Scores (client id -> utility score),
//	            Ratios (selected client id -> compression ratio)
//	update      Round, Client, Bytes (wire bytes of the sparse update)
//	evict       Round, Client, Reason
//	quarantine  Round, Client, Reason, Norm
//	aggregate   Round, Received, Seconds (aggregation+eval latency)
//	round       Round, Clients, Selected, Received, Evicted,
//	            Quarantined, Bytes, Acc — mirrors the server RoundRecord
//	checkpoint  Round, Bytes, Seconds
//	edge_up     Round, Edge (an edge registered or rejoined)
//	edge_down   Round, Edge, Reason (heartbeat timeout or wire error)
//	reroute     Round, Edge (the dead edge), Clients (orphans moved),
//	            Reason (the reassignment summary)
//	reroute_wait Round (the round whose go-ahead waited), Seconds (how
//	            long it waited for orphans to resurface), Clients (still
//	            missing when it went ahead; 0 when all came back)
//
// Client is -1 on records that do not concern a single client. Acc is
// omitted (not emitted) when the round was not evaluated.
type Event struct {
	TS     string          `json:"ts,omitempty"`
	Type   string          `json:"type"`
	Round  int             `json:"round"`
	Client int             `json:"client"`
	Reason string          `json:"reason,omitempty"`
	Scores map[int]float64 `json:"scores,omitempty"`
	Ratios map[int]float64 `json:"ratios,omitempty"`

	Bytes   int64   `json:"bytes,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Norm    float64 `json:"norm,omitempty"`

	Clients     int      `json:"clients,omitempty"`
	Selected    int      `json:"selected,omitempty"`
	Received    int      `json:"received,omitempty"`
	Evicted     int      `json:"evicted,omitempty"`
	Quarantined int      `json:"quarantined,omitempty"`
	Acc         *float64 `json:"acc,omitempty"`

	// Edge identifies the edge aggregator an event concerns (-1 or
	// omitted on flat-session records). Emitted by the two-tier engine:
	// edge_up, edge_down, reroute.
	Edge int `json:"edge,omitempty"`
}

// AccValue wraps a test accuracy for Event.Acc, mapping NaN (no
// evaluation this round) to nil so the record stays valid JSON.
func AccValue(acc float64) *float64 {
	if math.IsNaN(acc) {
		return nil
	}
	return &acc
}

// EventLog appends Events as JSONL (one JSON object per line) through a
// buffered writer. Emit never blocks training on fsync: records buffer in
// memory and reach the OS on Flush, which the round engine calls at round
// boundaries — the natural crash-consistency points. A crash can lose at
// most the buffered tail of the current round and can tear at most the
// final line; ReadEvents skips a torn trailing line.
//
// A nil *EventLog is valid: Emit, Flush and Close are no-ops.
type EventLog struct {
	mu  sync.Mutex
	f   *os.File // nil once closed
	w   *bufio.Writer
	err error
	now func() time.Time
}

// OpenEventLog opens (creating or appending to) the JSONL event log at
// path.
func OpenEventLog(path string) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open event log: %w", err)
	}
	return &EventLog{f: f, w: bufio.NewWriterSize(f, 64<<10), now: time.Now}, nil
}

// Emit appends one event. The timestamp is stamped here (RFC3339Nano)
// unless the caller pre-filled it. Errors are sticky and reported by Flush
// and Close; a logging subsystem must never take down training.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if e.TS == "" {
		e.TS = l.now().UTC().Format(time.RFC3339Nano)
	}
	b, err := json.Marshal(&e)
	if err != nil {
		l.err = fmt.Errorf("obs: marshal event: %w", err)
		return
	}
	if _, err := l.w.Write(b); err != nil {
		l.err = err
		return
	}
	if err := l.w.WriteByte('\n'); err != nil {
		l.err = err
	}
}

// Flush pushes buffered records to the OS and fsyncs, so a completed
// round's records survive a crash.
func (l *EventLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *EventLog) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.err = err
			return err
		}
	}
	return nil
}

// Close flushes and closes the log, returning the first error seen.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// ReadEvents parses a JSONL event stream. A torn final line (the tail a
// crash can leave behind) is skipped; a malformed line anywhere else is
// an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []Event
	var pendingErr error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the final one: real corruption.
			return out, pendingErr
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			pendingErr = fmt.Errorf("obs: malformed event line: %w", err)
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}
