package edge

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adafl/internal/rpc"
)

// TestChaosEdgeKillReroute is the headline robustness scenario: three
// regional edges front a 700-client fleet, a third of it planned onto
// edge 1. Edge 1 is killed the instant the round-3 go-ahead reaches it —
// genuinely mid-round — and the session must detect the death, complete
// the round with partial aggregation, reroute every one of its clients
// to the surviving siblings, and finish every remaining round with the
// full fleet back, landing within tolerance of the no-failure run.
func TestChaosEdgeKillReroute(t *testing.T) {
	const (
		edges   = 3
		clients = 700
		rounds  = 6
		dim     = 2000
		nnz     = 50
		seed    = 1337
	)
	// The orphans are the clients the root's plan puts on edge 1.
	plan, err := NewTopology([]EdgeSpec{{ID: 0}, {ID: 1}, {ID: 2}}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Plan(); err != nil {
		t.Fatal(err)
	}
	victims := len(plan.Clients(1))

	baselineCfg := treeCfg{
		edges: edges, clients: clients, rounds: rounds, dim: dim, nnz: nnz, seed: seed,
	}
	baseline := runTree(t, baselineCfg)
	for _, rec := range baseline.History {
		if rec.Folded != clients {
			t.Fatalf("baseline round %d folded %d, want %d", rec.Round+1, rec.Folded, clients)
		}
	}

	var run atomic.Pointer[treeRun]
	var killOnce sync.Once
	chaosCfg := baselineCfg
	chaosCfg.run = &run
	chaosCfg.onSelect = map[int]func(int){
		1: func(round int) {
			if round == 2 {
				killOnce.Do(func() { run.Load().edges[1].Kill() })
			}
		},
	}
	tr := startTree(t, chaosCfg)
	res, err := tr.wait(120*time.Second, true)
	if err != nil {
		t.Fatalf("chaos session failed: %v", err)
	}

	if len(res.History) != rounds {
		t.Fatalf("completed %d rounds, want %d", len(res.History), rounds)
	}
	if res.Reroutes < 1 {
		t.Errorf("no reroute was executed")
	}
	if res.Orphans != victims {
		t.Errorf("rerouted %d orphans, want %d", res.Orphans, victims)
	}
	kill := res.History[2]
	if kill.Edges >= edges {
		t.Errorf("kill round merged %d partials — the dead edge contributed", kill.Edges)
	}
	if kill.Rerouted != victims {
		t.Errorf("kill round rerouted %d clients, want %d", kill.Rerouted, victims)
	}
	final := res.History[rounds-1]
	if final.Folded != clients {
		t.Errorf("final round folded %d updates, want the full fleet of %d back", final.Folded, clients)
	}
	if final.Edges != edges-1 {
		t.Errorf("final round merged %d partials, want %d survivors", final.Edges, edges-1)
	}

	// Accuracy proxy: the chaos run's model must land within tolerance of
	// the no-failure run. The only divergence is the kill round's missing
	// contributions (updates are mean-zero and the aggregation is a
	// per-round average), so the gap stays tiny.
	var maxDiff float64
	for i := range baseline.Global {
		d := res.Global[i] - baseline.Global[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Errorf("chaos run drifted %v from the no-failure run (tolerance 0.05)", maxDiff)
	}
	t.Logf("chaos drift vs no-failure run: %v (max coordinate)", maxDiff)
}

// TestChaosHeartbeatTimeout exercises the watchdog path: a registered
// edge that goes silent (no heartbeats, no partials, but a live socket)
// must be declared dead within the heartbeat timeout and rerouted — the
// failure mode a wire error never reports.
func TestChaosHeartbeatTimeout(t *testing.T) {
	const clients = 12
	root, err := NewRoot(RootConfig{
		NumEdges: 2, Clients: clients, Rounds: 3, Dim: 64,
		HeartbeatTimeout: 250 * time.Millisecond,
		PartialTimeout:   20 * time.Second,
		QuorumTimeout:    30 * time.Second,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rootCh := make(chan error, 1)
	var res *RootResult
	go func() {
		r, err := root.Run()
		res = r
		rootCh <- err
	}()

	e, err := NewEdge(EdgeConfig{
		ID: 0, RootAddr: root.EdgeAddr(), Dim: 64,
		HeartbeatInterval: 30 * time.Millisecond,
		UpdateTimeout:     5 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeCh := make(chan error, 1)
	go func() { _, err := e.Run(); edgeCh <- err }()

	// The silent edge: registers as edge 1 with zero clients, then never
	// speaks again. Only the watchdog can retire it.
	mute, err := rpc.Dial("tcp", root.EdgeAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	if err := mute.Send(&rpc.Envelope{Type: rpc.MsgEdgeHello, ClientID: 1, Info: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}

	clientsCh := make(chan error, 1)
	go func() {
		clientsCh <- RunClients(ClientsConfig{
			Bootstrap: root.BootstrapAddr(), Lo: 0, Hi: clients,
			Dim: 64, Nnz: 4, Seed: 5,
			MaxRetries: 100, RetryBackoff: 20 * time.Millisecond,
		})
	}()

	if err := <-rootCh; err != nil {
		t.Fatalf("root failed: %v", err)
	}
	if err := <-edgeCh; err != nil {
		t.Fatalf("edge failed: %v", err)
	}
	if err := <-clientsCh; err != nil {
		t.Fatalf("clients failed: %v", err)
	}
	if res.Reroutes < 1 {
		t.Error("silent edge was never declared dead")
	}
	if last := res.History[len(res.History)-1]; last.Folded != clients {
		t.Errorf("final round folded %d, want %d", last.Folded, clients)
	}
}

// TestEdgeGivesUpClientsFollowTheReroute: an edge that loses its root and
// has no redial budget left drops its clients without a farewell. The
// root has moved them to the survivors, so they redial the bootstrap and
// follow; a farewell would have ended their sessions and left the
// survivors folding a third of the fleet short for the rest of the run.
func TestEdgeGivesUpClientsFollowTheReroute(t *testing.T) {
	const edges, clients, rounds = 3, 30, 5
	var run atomic.Pointer[treeRun]
	tr := startTree(t, treeCfg{
		edges: edges, clients: clients, rounds: rounds, dim: 64, nnz: 4, seed: 23, run: &run,
		onRound: func(round int, _ []float64) {
			// Edge 1, like every edge here, has no redial budget.
			if p := run.Load().root.roster.Peer(1); round == 1 && p != nil {
				p.Conn.Close()
			}
		},
	})
	deadline := time.After(60 * time.Second)
	recv := func(ch chan error, what string) error {
		select {
		case err := <-ch:
			return err
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
			return nil
		}
	}
	if err := recv(tr.rootCh, "the root"); err != nil {
		t.Fatalf("root failed: %v", err)
	}
	gaveUp := 0
	for range tr.edges {
		if err := recv(tr.edgeCh, "an edge"); err != nil {
			if !strings.Contains(err.Error(), "retry budget 0 spent") {
				t.Errorf("edge failed: %v", err)
			}
			gaveUp++
		}
	}
	if gaveUp != 1 {
		t.Errorf("%d edges gave up on the root, want 1", gaveUp)
	}
	if err := recv(tr.clientsCh, "the client fleet"); err != nil {
		t.Errorf("clients failed: %v", err)
	}
	tr.mu.Lock()
	res := tr.rootRes
	tr.mu.Unlock()
	for _, rec := range res.History[3:] {
		if rec.Folded != clients {
			t.Errorf("round %d folded %d updates, want all %d back", rec.Round+1, rec.Folded, clients)
		}
	}
}

// TestRootFailsWhenNoEdgeSurvives: when the only edge dies mid-round, its
// clients have nowhere to go, and the root fails in that round with the
// reroute's error — not one round later, after recording an empty round.
func TestRootFailsWhenNoEdgeSurvives(t *testing.T) {
	var run atomic.Pointer[treeRun]
	var killedAt atomic.Int64
	var onRoundSaw atomic.Int64
	onRoundSaw.Store(-1)
	tr := startTree(t, treeCfg{
		edges: 1, clients: 8, rounds: 5, dim: 64, nnz: 4, seed: 29, run: &run,
		clientRetries: 1,
		onRound:       func(round int, _ []float64) { onRoundSaw.Store(int64(round)) },
		onSelect: map[int]func(int){0: func(round int) {
			if round == 2 {
				killedAt.Store(time.Now().UnixNano())
				run.Load().edges[0].Kill()
			}
		}},
	})
	select {
	case err := <-tr.rootCh:
		if waited := time.Since(time.Unix(0, killedAt.Load())); waited > time.Second {
			t.Errorf("root returned %v after the kill, want within a second", waited)
		}
		if err == nil || !strings.Contains(err.Error(), "round 3: reroute of edge 0") ||
			!strings.Contains(err.Error(), "no surviving edge") {
			t.Fatalf("root returned %v, want round 3's reroute failing for want of a surviving edge", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("root still running 30 s after its last edge died")
	}
	if last := onRoundSaw.Load(); last != 1 {
		t.Errorf("OnRound last saw round %d, want 2: the kill round must not complete", last+1)
	}
	for what, ch := range map[string]chan error{"the edge": tr.edgeCh, "the client fleet": tr.clientsCh} {
		select {
		case <-ch: // killed, and out of redials: neither has a root to go to
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still running after the root failed", what)
		}
	}
}
