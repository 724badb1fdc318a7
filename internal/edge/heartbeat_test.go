package edge

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adafl/internal/obs"
	"adafl/internal/rpc"
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

// TestHeartbeatSurvivesALatePing: the root side of the link holds the
// edge's first ping for three intervals (a net.Pipe write blocks until
// the peer reads, as a full socket does). That ping is late, not lost —
// the root tolerates far more silence — so the heartbeat must deliver it
// and keep ticking on the same connection, with no error counted.
func TestHeartbeatSurvivesALatePing(t *testing.T) {
	const interval = 20 * time.Millisecond
	reg := obs.NewRegistry()
	e, err := NewEdge(EdgeConfig{ID: 1, RootAddr: "127.0.0.1:1", Dim: 4, HeartbeatInterval: interval,
		UpdateTimeout: 5 * time.Second, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer e.ln.Close()
	edgeSide, rootSide := net.Pipe()
	defer rootSide.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.heartbeat(rpc.NewBinaryConn(edgeSide, nil), 0, stop)
	}()

	time.Sleep(3 * interval) // the hold: nothing reads the first ping yet
	root := rpc.NewBinaryConn(rootSide, nil)
	root.SetReadDeadline(time.Now().Add(5 * time.Second))
	for pings := 0; pings < 4; pings++ {
		env, err := root.Recv()
		if err != nil {
			t.Fatalf("root read %d pings, then: %v", pings, err)
		}
		if env.Type != rpc.MsgPing || env.ClientID != 1 {
			t.Fatalf("root read %v from %d, want a ping from edge 1", env.Type, env.ClientID)
		}
	}
	close(stop)
	rootSide.Close() // unblocks a ping in flight
	<-done
	if n := reg.Counter(`adafl_edge_heartbeat_errors_total{edge="1"}`).Value(); n != 0 {
		t.Errorf("%d heartbeat errors counted, want 0", n)
	}
}

// failingConn is a root link whose every write fails, as a reset one does.
type failingConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *failingConn) Write([]byte) (int, error) { return 0, errors.New("connection reset by peer") }
func (c *failingConn) Close() error              { c.closed.Store(true); return nil }

// TestHeartbeatErrorClosesTheLink: a ping that really fails is counted and
// closes the root link, so the edge's read loop fails and redials at once
// rather than going quiet until the root declares it dead.
func TestHeartbeatErrorClosesTheLink(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEdge(EdgeConfig{ID: 2, RootAddr: "127.0.0.1:1", Dim: 4, HeartbeatInterval: time.Millisecond,
		Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer e.ln.Close()
	a, b := net.Pipe()
	defer b.Close()
	conn := &failingConn{Conn: a}
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.heartbeat(rpc.NewBinaryConn(conn, nil), 0, make(chan struct{}))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat still running after its ping failed")
	}
	if !conn.closed.Load() {
		t.Error("a failed ping left the root link open")
	}
	if n := reg.Counter(`adafl_edge_heartbeat_errors_total{edge="2"}`).Value(); n != 1 {
		t.Errorf("%d heartbeat errors counted, want 1", n)
	}
}
