package session

import (
	"strings"
	"sync"
	"testing"
	"time"

	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/rpc"
	"adafl/internal/stats"
)

func quiet(string, ...interface{}) {}

// testEnv is the shared scaffolding: a synthetic task partitioned across
// clients plus a seeded model constructor, mirroring the rpc package's
// chaos environment.
type testEnv struct {
	seed     uint64
	clients  int
	parts    []*dataset.Dataset
	test     *dataset.Dataset
	newModel func() *nn.Model
}

func newTestEnv(clients, samples, imgSize, hidden int, seed uint64) *testEnv {
	ds := dataset.SynthMNIST(samples, imgSize, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, imgSize, imgSize}, []int{hidden}, 10, stats.NewRNG(seed+3))
	}
	return &testEnv{seed: seed, clients: clients, parts: parts, test: test, newModel: newModel}
}

// asyncClient builds an async-mode client config targeting a session.
func (e *testEnv) asyncClient(i int, addr, session string) rpc.ClientConfig {
	return rpc.ClientConfig{
		Addr: addr, Session: session, Async: true, ID: i,
		Data: e.parts[i], NewModel: e.newModel,
		LocalSteps: 3, BatchSize: 16, LR: 0.1, Momentum: 0.9,
		DGCClip: 10, DGCMsgClip: 2,
		Seed: e.seed + 50 + uint64(i),
		Logf: quiet,
	}
}

// runClients launches one goroutine per config and returns results and
// errors indexed by position after all clients exit.
func runClients(cfgs []rpc.ClientConfig) ([]*rpc.ClientResult, []error) {
	results := make([]*rpc.ClientResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		i, cfg := i, cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = rpc.RunClient(cfg)
		}()
	}
	wg.Wait()
	return results, errs
}

// connCount reports the session's live connection count (test-only peek).
func connCount(a *AsyncSession) int { return a.roster.Len() }

func TestManagerRegisterValidation(t *testing.T) {
	m, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	env := newTestEnv(1, 40, 12, 4, 3)
	a, err := NewAsync(AsyncConfig{NewModel: env.newModel, K: 1, Versions: 1, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("", a); err != nil {
		t.Fatalf("default registration: %v", err)
	}
	if err := m.Register(DefaultSession, a); err == nil {
		t.Fatal(`"" and "default" must collide`)
	}
	if err := m.Register("x", nil); err == nil {
		t.Fatal("nil session accepted")
	}
	if err := m.Register(strings.Repeat("n", maxSessionName+1), a); err == nil {
		t.Fatal("oversized session name accepted")
	}
	if _, err := NewManager(Config{Addr: "127.0.0.1:0", Wire: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown wire codec accepted")
	}
}

// TestManagerUnknownSessionRejected: a hello naming an unregistered
// session is turned away with a shutdown notice; the client exits
// cleanly having done no work.
func TestManagerUnknownSessionRejected(t *testing.T) {
	env := newTestEnv(1, 40, 12, 4, 5)
	m, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	go m.Serve()
	defer m.Close()
	res, err := rpc.RunClient(env.asyncClient(0, m.Addr(), "no-such-session"))
	if err != nil {
		t.Fatalf("rejected client must exit cleanly: %v", err)
	}
	if res.Rounds != 0 || res.Uploads != 0 {
		t.Fatalf("rejected client did work: %+v", res)
	}
}

// TestManagerAdmissionCap: an async session with MaxClients=1 turns the
// second registration away while the first keeps training.
func TestManagerAdmissionCap(t *testing.T) {
	env := newTestEnv(2, 120, 12, 4, 7)
	a, err := NewAsync(AsyncConfig{NewModel: env.newModel, K: 1, Versions: 1000, MaxClients: 1, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("capped", a); err != nil {
		t.Fatal(err)
	}
	go m.Serve()
	defer m.Close()
	runDone := make(chan struct{})
	go func() { a.Run(); close(runDone) }()
	firstDone := make(chan struct{})
	go func() {
		rpc.RunClient(env.asyncClient(0, m.Addr(), "capped"))
		close(firstDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for connCount(a) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first client never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	res, err := rpc.RunClient(env.asyncClient(1, m.Addr(), "capped"))
	if err != nil {
		t.Fatalf("capped-out client must exit cleanly: %v", err)
	}
	if res.Rounds != 0 {
		t.Fatalf("capped-out client trained: %+v", res)
	}
	a.Kill()
	<-runDone
	<-firstDone
}
