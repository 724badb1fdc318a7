package edge

import (
	"sync"
	"testing"
	"time"

	"adafl/internal/rpc"
)

// TestChaosEdgeKillReroute is the headline robustness scenario: three
// regional edges front a 700-client fleet, with region affinity
// concentrating 500 clients on edge 1. Edge 1 is killed the instant the
// round-3 go-ahead reaches it — genuinely mid-round — and the session
// must detect the death, complete the round with partial aggregation,
// reroute all 500 orphans to the surviving siblings, and finish every
// remaining round with the full fleet back, landing within tolerance of
// the no-failure run.
func TestChaosEdgeKillReroute(t *testing.T) {
	const (
		edges   = 3
		clients = 700
		rounds  = 6
		dim     = 2000
		nnz     = 50
		seed    = 1337
		victims = 500 // region-b clients concentrated on edge 1
	)
	regionOfEdge := func(e int) string { return []string{"a", "b", "c"}[e] }
	regionOfClient := func(c int) string {
		switch {
		case c < 100:
			return "a"
		case c < 100+victims:
			return "b"
		default:
			return "c"
		}
	}
	cost := CostModel{CrossRegionPenalty: 100, RegionOf: regionOfClient}

	baselineCfg := treeCfg{
		edges: edges, clients: clients, rounds: rounds, dim: dim, nnz: nnz,
		seed: seed, edgeRegion: regionOfEdge, cost: cost,
	}
	baseline := runTree(t, baselineCfg)
	for _, rec := range baseline.History {
		if rec.Folded != clients {
			t.Fatalf("baseline round %d folded %d, want %d", rec.Round+1, rec.Folded, clients)
		}
	}

	var tr *treeRun
	var killOnce sync.Once
	chaosCfg := baselineCfg
	chaosCfg.onSelect = map[int]func(int){
		1: func(round int) {
			if round == 2 {
				killOnce.Do(func() { tr.edges[1].Kill() })
			}
		},
	}
	tr = startTree(t, chaosCfg)
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
	if err := mute.Send(&rpc.Envelope{Type: rpc.MsgEdgeHello, ClientID: 1, Info: "127.0.0.1:1", Region: "z"}); err != nil {
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
