package edge

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
	"adafl/internal/tensor"
)

// treeCfg parameterises one two-tier test session.
type treeCfg struct {
	edges, clients, rounds int
	dim, nnz               int
	seed                   uint64
	edgeRegion             func(e int) string // nil = no regions
	cost                   CostModel
	ckptDir                string
	resume                 bool
	onRound                func(round int, global []float64)
	onSelect               map[int]func(round int) // per-edge hooks
	edgeRetries            int
	rootAddr, bootAddr     string // "" = fresh ephemeral ports
	metrics                *obs.Registry
	events                 *obs.EventLog
	logf                   func(format string, args ...interface{}) // nil = t.Logf, root only
}

// treeRun is one running session: root in a goroutine, E edges, a client
// fleet, all collected by wait().
type treeRun struct {
	t     *testing.T
	root  *Root
	edges []*Edge

	rootCh    chan error
	rootRes   *RootResult
	edgeCh    chan error
	edgeRes   []*EdgeResult
	clientsCh chan error
	mu        sync.Mutex
}

func startTree(t *testing.T, tc treeCfg) *treeRun {
	t.Helper()
	if tc.logf == nil {
		tc.logf = t.Logf
	}
	root, err := NewRoot(RootConfig{
		EdgeAddr:   tc.rootAddr,
		ClientAddr: tc.bootAddr,
		NumEdges:   tc.edges,
		Clients:    tc.clients,
		Rounds:     tc.rounds,
		Dim:        tc.dim,
		// Generous watchdog: under -race a 700-goroutine fleet can starve
		// a 30ms heartbeat sender well past a tight timeout, and the kill
		// tests detect death through the wire error instantly anyway.
		// TestChaosHeartbeatTimeout pins the watchdog path with its own
		// tight root.
		HeartbeatTimeout: 2 * time.Second,
		PartialTimeout:   20 * time.Second,
		QuorumTimeout:    30 * time.Second,
		RerouteGrace:     5 * time.Second,
		CheckpointDir:    tc.ckptDir,
		Resume:           tc.resume,
		Cost:             tc.cost,
		Metrics:          tc.metrics,
		Events:           tc.events,
		Logf:             tc.logf,
		OnRound:          tc.onRound,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &treeRun{
		t: t, root: root,
		rootCh:    make(chan error, 1),
		edgeCh:    make(chan error, tc.edges),
		edgeRes:   make([]*EdgeResult, tc.edges),
		clientsCh: make(chan error, 1),
	}
	go func() {
		res, err := root.Run()
		tr.mu.Lock()
		tr.rootRes = res
		tr.mu.Unlock()
		tr.rootCh <- err
	}()

	for i := 0; i < tc.edges; i++ {
		region := ""
		if tc.edgeRegion != nil {
			region = tc.edgeRegion(i)
		}
		e, err := NewEdge(EdgeConfig{
			ID:                i,
			RootAddr:          root.EdgeAddr(),
			Region:            region,
			Dim:               tc.dim,
			HeartbeatInterval: 30 * time.Millisecond,
			UpdateTimeout:     10 * time.Second,
			MaxRetries:        tc.edgeRetries,
			RetryBackoff:      20 * time.Millisecond,
			Seed:              tc.seed,
			Logf:              t.Logf,
			OnSelect:          tc.onSelect[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.edges = append(tr.edges, e)
		go func(i int, e *Edge) {
			res, err := e.Run()
			tr.mu.Lock()
			tr.edgeRes[i] = res
			tr.mu.Unlock()
			tr.edgeCh <- err
		}(i, e)
	}

	go func() {
		tr.clientsCh <- RunClients(ClientsConfig{
			Bootstrap:    root.BootstrapAddr(),
			Lo:           0,
			Hi:           tc.clients,
			Dim:          tc.dim,
			Nnz:          tc.nnz,
			Seed:         tc.seed,
			MaxRetries:   100,
			RetryBackoff: 20 * time.Millisecond,
		})
	}()
	return tr
}

// wait collects the whole tree with a watchdog and returns the root's
// outcome. Edge errors other than allowKilled edge kills fail the test.
func (tr *treeRun) wait(timeout time.Duration, allowKilled bool) (*RootResult, error) {
	tr.t.Helper()
	deadline := time.After(timeout)
	var rootErr error
	select {
	case rootErr = <-tr.rootCh:
	case <-deadline:
		tr.t.Fatal("tree session timed out waiting for the root")
	}
	for range tr.edges {
		select {
		case err := <-tr.edgeCh:
			if err != nil && !(allowKilled && errors.Is(err, ErrEdgeKilled)) {
				tr.t.Errorf("edge failed: %v", err)
			}
		case <-deadline:
			tr.t.Fatal("tree session timed out waiting for an edge")
		}
	}
	select {
	case err := <-tr.clientsCh:
		if err != nil {
			tr.t.Errorf("clients failed: %v", err)
		}
	case <-deadline:
		tr.t.Fatal("tree session timed out waiting for the client fleet")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.rootRes, rootErr
}

func runTree(t *testing.T, tc treeCfg) *RootResult {
	t.Helper()
	tr := startTree(t, tc)
	res, err := tr.wait(60*time.Second, false)
	if err != nil {
		t.Fatalf("root failed: %v", err)
	}
	return res
}

// flatReference folds the same deterministic fleet updates the way a
// single aggregator would — ascending client ID, weight 1, one
// renormalised apply per round — which is the bit pattern the tree must
// reproduce exactly.
func flatReference(clients, rounds, dim, nnz int, seed uint64) []float64 {
	global := make([]float64, dim)
	upd := &compress.Sparse{}
	part := shard.NewPartial(dim)
	for round := 0; round < rounds; round++ {
		part.Reset()
		for id := 0; id < clients; id++ {
			rpc.FleetUpdate(upd, seed, round, id, dim, nnz)
			part.Fold(shard.Update{Client: id, Weight: 1, Delta: upd}, false)
		}
		if part.WeightSum > 0 {
			tensor.Axpy(1/part.WeightSum, part.Sum, global)
		}
	}
	return global
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTreeDeterminism(t *testing.T) {
	tc := treeCfg{edges: 3, clients: 24, rounds: 4, dim: 256, nnz: 16, seed: 42}
	a := runTree(t, tc)
	b := runTree(t, tc)
	if !bitEqual(a.Global, b.Global) {
		t.Error("two runs of a fixed topology diverge bitwise")
	}
	for _, rec := range a.History {
		if rec.Folded != tc.clients {
			t.Errorf("round %d folded %d updates, want %d", rec.Round+1, rec.Folded, tc.clients)
		}
		if rec.Edges != tc.edges {
			t.Errorf("round %d merged %d partials, want %d", rec.Round+1, rec.Edges, tc.edges)
		}
	}
}

func TestTreeMatchesFlatSession(t *testing.T) {
	// The tree must reproduce the flat fold bit for bit: with E=1 the
	// edge folds exactly the ascending-client order of the reference,
	// and with E=3 the partial-of-partials merge (ascending edge ID over
	// contiguous ascending client ranges) is the same summation order.
	for _, edges := range []int{1, 3} {
		tc := treeCfg{edges: edges, clients: 30, rounds: 3, dim: 512, nnz: 24, seed: 7}
		res := runTree(t, tc)
		want := flatReference(tc.clients, tc.rounds, tc.dim, tc.nnz, tc.seed)
		if edges == 1 {
			if !bitEqual(res.Global, want) {
				t.Errorf("E=1 tree is not bitwise equal to the flat session")
			}
			continue
		}
		// Multiple edges partition the fleet into contiguous ID ranges
		// only under a contiguous plan; the default plan interleaves for
		// load, so compare within FP-reassociation tolerance instead.
		var maxDiff float64
		for i := range want {
			if d := res.Global[i] - want[i]; d > maxDiff {
				maxDiff = d
			} else if -d > maxDiff {
				maxDiff = -d
			}
		}
		if maxDiff > 1e-12 {
			t.Errorf("E=%d tree drifts %v from the flat session", edges, maxDiff)
		}
	}
}

// keptDir returns the checkpoint directory for the kill-and-resume test:
// ADAFL_ROOT_CKPT_DIR when set (CI keeps it and runs the doctor CLI against
// it afterwards), else a per-test temp dir.
func keptDir(t *testing.T) string {
	dir := os.Getenv("ADAFL_ROOT_CKPT_DIR")
	if dir == "" {
		return t.TempDir()
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRootKillAndResume(t *testing.T) {
	dir := keptDir(t)
	tc := treeCfg{edges: 2, clients: 16, rounds: 5, dim: 128, nnz: 8, seed: 11}
	// Both roots append to one event log, as a restarted process would.
	openLog := func() *obs.EventLog {
		l, err := obs.OpenEventLog(filepath.Join(dir, "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	baseline := runTree(t, tc)

	// Killed run: the root dies right after checkpointing round 3.
	var killOnce sync.Once
	var tr *treeRun
	log1 := openLog()
	tcKill := tc
	tcKill.ckptDir = dir
	tcKill.events = log1
	tcKill.edgeRetries = 200
	tcKill.onRound = func(round int, _ []float64) {
		if round == 2 {
			killOnce.Do(func() { tr.root.Kill() })
		}
	}
	tr = startTree(t, tcKill)
	if err := <-tr.rootCh; !errors.Is(err, ErrRootKilled) {
		t.Fatalf("killed root returned %v, want ErrRootKilled", err)
	}
	edgeAddr, bootAddr := tr.root.EdgeAddr(), tr.root.BootstrapAddr()
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume on the same addresses: the running edges redial with
	// backoff; their clients never notice.
	log2 := openLog()
	root2, err := NewRoot(RootConfig{
		EdgeAddr: edgeAddr, ClientAddr: bootAddr,
		NumEdges: tc.edges, Clients: tc.clients, Rounds: tc.rounds, Dim: tc.dim,
		HeartbeatTimeout: 2 * time.Second,
		QuorumTimeout:    30 * time.Second,
		CheckpointDir:    dir, Resume: true,
		Events: log2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		res, err := root2.Run()
		tr.mu.Lock()
		tr.rootRes = res
		tr.mu.Unlock()
		tr.rootCh <- err
	}()
	res, err := tr.wait(60*time.Second, false)
	if err != nil {
		t.Fatalf("resumed root failed: %v", err)
	}
	if res.Resumed != 3 {
		t.Errorf("resumed %d rounds, want 3", res.Resumed)
	}
	if len(res.History) != tc.rounds {
		t.Errorf("history covers %d rounds, want %d", len(res.History), tc.rounds)
	}
	if !bitEqual(res.Global, baseline.Global) {
		t.Error("kill-and-resume run diverges bitwise from the uninterrupted run")
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRefusesMismatchedTopology(t *testing.T) {
	dir := t.TempDir()
	tc := treeCfg{edges: 2, clients: 8, rounds: 2, dim: 64, nnz: 4, seed: 3, ckptDir: dir}
	runTree(t, tc)

	for name, mutate := range map[string]func(*RootConfig){
		"edges":   func(c *RootConfig) { c.NumEdges = 3 },
		"clients": func(c *RootConfig) { c.Clients = 9 },
		"dim":     func(c *RootConfig) { c.Dim = 65 },
		"rounds":  func(c *RootConfig) { c.Rounds = 3 },
	} {
		cfg := RootConfig{
			NumEdges: tc.edges, Clients: tc.clients, Rounds: tc.rounds, Dim: tc.dim,
			CheckpointDir: dir, Resume: true, QuorumTimeout: time.Second,
		}
		mutate(&cfg)
		root, err := NewRoot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = root.Run()
		if err == nil || !strings.Contains(err.Error(), "refusing to resume") {
			t.Errorf("mismatched %s: got %v, want a refusing-to-resume error", name, err)
		}
	}
}

func TestEdgeScreensHostileClient(t *testing.T) {
	// A direct-dial client sends a poisoned update; the edge's shared
	// screen must quarantine it and the round must complete without it.
	tc := treeCfg{edges: 1, clients: 6, rounds: 3, dim: 64, nnz: 4, seed: 9}
	root, err := NewRoot(RootConfig{
		NumEdges: 1, Clients: tc.clients, Rounds: tc.rounds, Dim: tc.dim,
		HeartbeatTimeout: 300 * time.Millisecond,
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
		ID: 0, RootAddr: root.EdgeAddr(), Dim: tc.dim,
		HeartbeatInterval: 30 * time.Millisecond,
		UpdateTimeout:     5 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeCh := make(chan error, 1)
	var eres *EdgeResult
	go func() {
		r, err := e.Run()
		eres = r
		edgeCh <- err
	}()

	// Clients 0..4 are honest; client 5 sends an entirely non-finite
	// update every round and must be quarantined.
	clientsCh := make(chan error, 1)
	go func() {
		clientsCh <- RunClients(ClientsConfig{
			Bootstrap: root.BootstrapAddr(), Lo: 0, Hi: tc.clients - 1,
			Dim: tc.dim, Nnz: tc.nnz, Seed: tc.seed,
			MaxRetries: 100, RetryBackoff: 20 * time.Millisecond,
		})
	}()
	go func() {
		conn, err := rpc.Dial("tcp", e.ClientAddr(), 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: tc.clients - 1})
		for {
			env, err := conn.Recv()
			if err != nil || env.Type != rpc.MsgSelect {
				return
			}
			nan := 0.0
			nan /= nan
			conn.Send(&rpc.Envelope{Type: rpc.MsgUpdate, ClientID: tc.clients - 1, Round: env.Round,
				Update: &compress.Sparse{Dim: tc.dim, Indices: []int32{0, 1}, Values: []float64{nan, nan}}})
		}
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
	if eres.Quarantined == 0 {
		t.Error("hostile update was never quarantined")
	}
	last := res.History[len(res.History)-1]
	if last.Folded != tc.clients-1 {
		t.Errorf("final round folded %d updates, want %d honest clients", last.Folded, tc.clients-1)
	}
}

// TestEdgeGivesUpOnWireVersionMismatch: a root that answers the handshake
// with another wire version will never agree, so the edge returns
// rpc.ErrWireVersion after one dial instead of spending its retry budget.
func TestEdgeGivesUpOnWireVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dials := make(chan int, 1)
	go func() {
		n := 0
		defer func() { dials <- n }()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			n++
			var open [4]byte
			io.ReadFull(raw, open[:])
			open[3]++ // the dialer's own preamble, one version on
			raw.Write(open[:])
			raw.Close()
		}
	}()
	e, err := NewEdge(EdgeConfig{
		ID: 0, RootAddr: ln.Addr().String(), Dim: 8,
		MaxRetries: 50, RetryBackoff: time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, rpc.ErrWireVersion) {
		t.Fatalf("edge returned %v, want rpc.ErrWireVersion", err)
	}
	ln.Close()
	if n := <-dials; n != 1 {
		t.Fatalf("edge dialled a root of another wire version %d times", n)
	}
}
