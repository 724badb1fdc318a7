package edge

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adafl/internal/obs"
)

// In both tests no periodic ping ever fires (an hour apart, with an hour
// of tolerated silence): the root learns every client count from the
// pushes an edge sends when its roster changes, or not at all.

// TestTreeStartsWithoutAHeartbeat: the client quorum before round 0 is met
// by the edges' count pushes alone.
func TestTreeStartsWithoutAHeartbeat(t *testing.T) {
	const clients = 16
	res := runTree(t, treeCfg{
		edges: 2, clients: clients, rounds: 3, dim: 64, nnz: 4, seed: 17,
		heartbeat: time.Hour, hbTimeout: time.Hour, quorum: 5 * time.Second,
	})
	for _, rec := range res.History {
		if rec.Folded != clients || rec.Edges != 2 {
			t.Errorf("round %d folded %d updates from %d edges, want %d from 2", rec.Round+1, rec.Folded, rec.Edges, clients)
		}
	}
}

// TestRerouteDoesNotWaitForAHeartbeat: after an edge dies mid-round, the
// next go-ahead waits only until its orphans are back on the survivors —
// signalled by the survivors' pushes — not for a tick or the 30 s grace.
// The wait is reported as one reroute_wait event with nobody missing.
func TestRerouteDoesNotWaitForAHeartbeat(t *testing.T) {
	const (
		edges, clients, rounds = 3, 30, 4
		grace                  = 30 * time.Second
	)
	eventPath := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.OpenEventLog(eventPath)
	if err != nil {
		t.Fatal(err)
	}
	var run atomic.Pointer[treeRun]
	var killOnce sync.Once
	tr := startTree(t, treeCfg{
		edges: edges, clients: clients, rounds: rounds, dim: 64, nnz: 4, seed: 19,
		heartbeat: time.Hour, hbTimeout: time.Hour, rerouteGrace: grace, events: events, run: &run,
		onSelect: map[int]func(int){1: func(round int) {
			if round == 1 {
				killOnce.Do(func() { run.Load().edges[1].Kill() })
			}
		}},
	})
	res, err := tr.wait(10*time.Second, true)
	if err != nil {
		t.Fatalf("root failed: %v", err)
	}
	if res.Reroutes != 1 {
		t.Errorf("%d reroutes, want 1", res.Reroutes)
	}
	if kill := res.History[1]; kill.Edges != edges-1 || kill.Rerouted == 0 {
		t.Errorf("kill round merged %d partials and rerouted %d clients, want %d and some", kill.Edges, kill.Rerouted, edges-1)
	}
	for _, rec := range res.History[2:] {
		if rec.Folded != clients {
			t.Errorf("round %d folded %d updates, want all %d back", rec.Round+1, rec.Folded, clients)
		}
	}

	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(eventPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	logged, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	var waits []obs.Event
	for _, e := range logged {
		if e.Type == "reroute_wait" {
			waits = append(waits, e)
		}
	}
	if len(waits) != 1 {
		t.Fatalf("%d reroute_wait events, want 1: %+v", len(waits), waits)
	}
	if w := waits[0]; w.Round != 2 || w.Clients != 0 || w.Seconds <= 0 || w.Seconds >= grace.Seconds() {
		t.Errorf("reroute_wait %+v, want round 2 with nobody missing, inside the grace", w)
	}
}
