package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's side of a
// call into the program. Times are seconds since the log was opened.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`

	log *spanLog
}

// spanLog keeps the spans of one traced workload in memory until the run
// ends. A nil *spanLog (the untraced pass) records nothing: start returns
// a nil *span, and every *span method accepts a nil receiver.
type spanLog struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Spans    []*span `json:"spans"`

	mu sync.Mutex
	t0 time.Time
}

func newSpanLog(workload string, seed uint64) *spanLog {
	return &spanLog{Workload: workload, Seed: seed, t0: time.Now()}
}

func (l *spanLog) start(name string, parent *span) *span {
	return l.startAt(name, parent, time.Now())
}

func (l *spanLog) startAt(name string, parent *span, t time.Time) *span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &span{ID: len(l.Spans), Parent: -1, Name: name, Start: t.Sub(l.t0).Seconds(), log: l}
	if parent != nil {
		s.Parent = parent.ID
	}
	l.Spans = append(l.Spans, s)
	return s
}

func (s *span) finish() { s.finishAt(time.Now()) }

func (s *span) finishAt(t time.Time) {
	if s == nil {
		return
	}
	s.log.mu.Lock()
	s.End = t.Sub(s.log.t0).Seconds()
	s.log.mu.Unlock()
}

// write stores the log as dir/trace-<workload>.json.
func (l *spanLog) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	l.mu.Lock()
	data, err := json.MarshalIndent(l, "", " ")
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+l.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
