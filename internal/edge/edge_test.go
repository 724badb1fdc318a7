package edge

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
)

// treeCfg parameterises one two-tier test session.
type treeCfg struct {
	edges, clients, rounds int
	dim, nnz               int
	seed                   uint64
	ckptDir                string
	resume                 bool
	onRound                func(round int, global []float64)
	onSelect               map[int]func(round int) // per-edge hooks
	edgeRetries            int
	rootAddr, bootAddr     string // "" = fresh ephemeral ports
	metrics                *obs.Registry
	events                 *obs.EventLog
	logf                   func(format string, args ...interface{}) // nil = t.Logf, root only
	heartbeat              time.Duration                            // edges' ping interval (0 = 30ms)
	hbTimeout              time.Duration                            // root's silence window (0 = 2s)
	quorum                 time.Duration                            // root's QuorumTimeout (0 = 30s)
	rerouteGrace           time.Duration                            // root's RerouteGrace (0 = 5s)
	clientRetries          int                                      // the fleet's redial budget (0 = 100)
	// run, when non-nil, holds the run before any of it starts: a hook's
	// way to the root and edges it runs beside.
	run *atomic.Pointer[treeRun]
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
		// Generous read deadline: under -race a 700-goroutine fleet can
		// starve a 30ms heartbeat sender well past a tight timeout, and the
		// kill tests detect death through the wire error instantly anyway.
		// TestChaosHeartbeatTimeout pins the silence path with its own
		// tight root.
		HeartbeatTimeout: cmp.Or(tc.hbTimeout, 2*time.Second),
		PartialTimeout:   20 * time.Second,
		QuorumTimeout:    cmp.Or(tc.quorum, 30*time.Second),
		RerouteGrace:     cmp.Or(tc.rerouteGrace, 5*time.Second),
		CheckpointDir:    tc.ckptDir,
		Resume:           tc.resume,
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
	for i := 0; i < tc.edges; i++ {
		e, err := NewEdge(EdgeConfig{
			ID:                i,
			RootAddr:          root.EdgeAddr(),
			Dim:               tc.dim,
			HeartbeatInterval: cmp.Or(tc.heartbeat, 30*time.Millisecond),
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
	}
	if tc.run != nil {
		tc.run.Store(tr)
	}

	go func() {
		res, err := root.Run()
		tr.mu.Lock()
		tr.rootRes = res
		tr.mu.Unlock()
		tr.rootCh <- err
	}()
	for i, e := range tr.edges {
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
			MaxRetries:   cmp.Or(tc.clientRetries, 100),
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
		if err := part.AddTo(global, 1/part.Weight()); err != nil {
			panic(err)
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
	// The tree must reproduce the flat fold bit for bit at any edge count:
	// the partials are fixed point, so how the default plan spreads the
	// clients over the edges, and the order the edges answer in, do not
	// change the bits.
	for _, edges := range []int{1, 3} {
		tc := treeCfg{edges: edges, clients: 30, rounds: 3, dim: 512, nnz: 24, seed: 7}
		res := runTree(t, tc)
		want := flatReference(tc.clients, tc.rounds, tc.dim, tc.nnz, tc.seed)
		if !bitEqual(res.Global, want) {
			t.Errorf("E=%d tree is not bitwise equal to the flat session", edges)
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
	var run atomic.Pointer[treeRun]
	log1 := openLog()
	tcKill := tc
	tcKill.ckptDir = dir
	tcKill.events = log1
	tcKill.edgeRetries = 200
	tcKill.run = &run
	tcKill.onRound = func(round int, _ []float64) {
		if round == 2 {
			killOnce.Do(func() { run.Load().root.Kill() })
		}
	}
	tr := startTree(t, tcKill)
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
	nan := math.NaN()
	res, eres, _ := runHostileTree(t, tc, []int{tc.clients - 1}, func() *compress.Sparse {
		return &compress.Sparse{Dim: tc.dim, Indices: []int32{0, 1}, Values: []float64{nan, nan}}
	})
	if eres.Quarantined == 0 {
		t.Error("hostile update was never quarantined")
	}
	last := res.History[len(res.History)-1]
	if last.Folded != tc.clients-1 {
		t.Errorf("final round folded %d updates, want %d honest clients", last.Folded, tc.clients-1)
	}
}

// TestEdgeQuarantinesFiniteGiants: two clients send finite updates
// carrying 1e308. With the norm gate off nothing but the fold window
// judges them (summed, they used to make the global +Inf); the edge
// quarantines both by name, and the root's global is bitwise the one of a
// tree in which they never arrived.
func TestEdgeQuarantinesFiniteGiants(t *testing.T) {
	tc := treeCfg{edges: 1, clients: 8, rounds: 3, dim: 64, nnz: 4, seed: 9}
	res, eres, logs := runHostileTree(t, tc, []int{tc.clients - 2, tc.clients - 1}, func() *compress.Sparse {
		return &compress.Sparse{Dim: tc.dim, Indices: []int32{0, 1}, Values: []float64{1e308, 0.5}}
	})
	if eres.Quarantined != 2 || strings.Count(logs(), "outside the fold window") != 2 {
		t.Errorf("quarantined %d updates, logged:\n%s\nwant both giants out by the fold window", eres.Quarantined, logs())
	}
	if want := flatReference(tc.clients-2, tc.rounds, tc.dim, tc.nnz, tc.seed); !bitEqual(res.Global, want) {
		t.Error("the global is not bitwise the one of the honest clients alone")
	}
}

// TestEdgeRefusesPartialPastTheWindow: 140 clients each send a product of
// 63, inside the per-update window, whose sum passes 2¹³. The edge's
// words may have wrapped, so it sends every round upstream empty, and the
// global never moves.
func TestEdgeRefusesPartialPastTheWindow(t *testing.T) {
	tc := treeCfg{edges: 1, clients: 142, rounds: 2, dim: 16, nnz: 4, seed: 9}
	hostile := make([]int, 140)
	for i := range hostile {
		hostile[i] = 2 + i
	}
	res, eres, logs := runHostileTree(t, tc, hostile, func() *compress.Sparse {
		return &compress.Sparse{Dim: tc.dim, Indices: []int32{3}, Values: []float64{63}}
	})
	if eres.Quarantined != 0 || !strings.Contains(logs(), "reaches the fold window") {
		t.Errorf("quarantined %d updates, logged:\n%s\nwant the partial refused, no update", eres.Quarantined, logs())
	}
	for _, r := range res.History {
		if r.Folded != 0 {
			t.Errorf("round %d merged %d updates, want an empty partial", r.Round+1, r.Folded)
		}
	}
	if !bitEqual(res.Global, make([]float64, tc.dim)) {
		t.Errorf("the global moved: %v", res.Global)
	}
}

// runHostileTree runs one root, one edge (norm gate off) and a fleet in
// which the clients in hostile dial the edge directly and answer every
// select with mkUpd's update; the rest are honest fleet clients. It
// returns the root's and the edge's results and the edge's log so far.
func runHostileTree(t *testing.T, tc treeCfg, hostile []int, mkUpd func() *compress.Sparse) (*RootResult, *EdgeResult, func() string) {
	t.Helper()
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
	var mu sync.Mutex
	var log strings.Builder
	e, err := NewEdge(EdgeConfig{
		ID: 0, RootAddr: root.EdgeAddr(), Dim: tc.dim,
		HeartbeatInterval: 30 * time.Millisecond,
		UpdateTimeout:     5 * time.Second,
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			fmt.Fprintf(&log, format+"\n", args...)
			mu.Unlock()
		},
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

	clientsCh := make(chan error, 1)
	go func() {
		clientsCh <- RunClients(ClientsConfig{
			Bootstrap: root.BootstrapAddr(), Lo: 0, Hi: tc.clients - len(hostile),
			Dim: tc.dim, Nnz: tc.nnz, Seed: tc.seed,
			MaxRetries: 100, RetryBackoff: 20 * time.Millisecond,
		})
	}()
	for _, id := range hostile {
		go func() {
			conn, err := rpc.Dial("tcp", e.ClientAddr(), 5*time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: id})
			for {
				env, err := conn.Recv()
				if err != nil || env.Type != rpc.MsgSelect {
					return
				}
				conn.Send(&rpc.Envelope{Type: rpc.MsgUpdate, ClientID: id, Round: env.Round, Update: mkUpd()})
			}
		}()
	}

	if err := <-rootCh; err != nil {
		t.Fatalf("root failed: %v", err)
	}
	if err := <-edgeCh; err != nil {
		t.Fatalf("edge failed: %v", err)
	}
	if err := <-clientsCh; err != nil {
		t.Fatalf("clients failed: %v", err)
	}
	return res, eres, func() string {
		mu.Lock()
		defer mu.Unlock()
		return log.String()
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
