package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEventLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	acc := 0.75
	l.Emit(Event{Type: "selection", Round: 0, Client: -1,
		Scores: map[int]float64{0: 0.9, 1: 0.4}, Ratios: map[int]float64{0: 4}})
	l.Emit(Event{Type: "update", Round: 0, Client: 0, Bytes: 1234})
	l.Emit(Event{Type: "round", Round: 0, Client: -1, Clients: 2, Selected: 1,
		Received: 1, Bytes: 1234, Acc: &acc})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("read %d events, want 3", len(evs))
	}
	if evs[0].Type != "selection" || evs[0].Scores[1] != 0.4 || evs[0].Ratios[0] != 4 {
		t.Fatalf("selection event mangled: %+v", evs[0])
	}
	if evs[1].Client != 0 || evs[1].Bytes != 1234 {
		t.Fatalf("update event mangled: %+v", evs[1])
	}
	if evs[2].Acc == nil || *evs[2].Acc != 0.75 || evs[2].Clients != 2 {
		t.Fatalf("round event mangled: %+v", evs[2])
	}
	for _, e := range evs {
		if e.TS == "" {
			t.Fatal("event missing timestamp")
		}
	}
}

func TestEventLogAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	for i := 0; i < 2; i++ {
		l, err := OpenEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		l.Emit(Event{Type: "round", Round: i, Client: -1})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Round != 0 || evs[1].Round != 1 {
		t.Fatalf("reopen did not append: %+v", evs)
	}
}

func TestReadEventsSkipsTornTrailingLine(t *testing.T) {
	in := `{"type":"round","round":0,"client":-1}` + "\n" +
		`{"type":"round","round":1,"cli` // torn mid-record by a crash
	evs, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatalf("torn trailing line must be skipped, got %v", err)
	}
	if len(evs) != 1 || evs[0].Round != 0 {
		t.Fatalf("events = %+v, want the one complete record", evs)
	}

	// The same garbage mid-file is corruption, not a crash artefact.
	bad := `{"type":"round","round":0,"client":-1}` + "\n" + "not json\n" +
		`{"type":"round","round":1,"client":-1}` + "\n"
	if _, err := ReadEvents(strings.NewReader(bad)); err == nil {
		t.Fatal("mid-file corruption must error")
	}
}

func TestNilEventLogNoOps(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Type: "round"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEventLogBuffersUntilFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Emit(Event{Type: "update", Round: 0, Client: 1})
	if b, _ := os.ReadFile(path); len(b) != 0 {
		t.Fatalf("record reached disk before Flush: %q", b)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		t.Fatalf("flush did not persist the record: %q, %v", b, err)
	}
}

func TestAccValue(t *testing.T) {
	if AccValue(nan()) != nil {
		t.Fatal("NaN accuracy must map to nil")
	}
	if v := AccValue(0.5); v == nil || *v != 0.5 {
		t.Fatal("finite accuracy must round-trip")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
