package session

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/fl"
	"adafl/internal/obs"
	"adafl/internal/rpc"
)

// TestAsyncBufferMatchesFedBuff pins the wire-mode buffer to the
// in-process fl.FedBuff strategy: fed the same deltas at the same
// stalenesses, both must produce the same next global (the shard tree
// folds Σwᵢdᵢ before one Axpy while FedBuff applies per-delta Axpys, so
// the comparison is near-exact rather than bitwise).
func TestAsyncBufferMatchesFedBuff(t *testing.T) {
	env := newTestEnv(1, 40, 12, 4, 13)
	const (
		k   = 3
		eta = 0.5
	)
	a, err := NewAsync(AsyncConfig{NewModel: env.newModel, K: k, Eta: eta, Versions: 10, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer a.tree.Close()
	// Advance the published version so staleness has room below it.
	params, _ := a.snapshot()
	base := append([]float64(nil), params...)
	a.publish(params, 5)

	staleness := []int{0, 2, 4}
	deltas := make([][]float64, k)
	for i := range deltas {
		d := make([]float64, a.dim)
		for j := range d {
			d[j] = math.Sin(float64(i+1) * float64(j+1) * 0.37)
		}
		deltas[i] = d
	}

	ref := fl.NewFedBuff(k, eta)
	global := append([]float64(nil), base...)
	for i, d := range deltas {
		ref.OnReceive(global, nil, fl.Update{Delta: compress.NewSparseDense(d), Staleness: staleness[i]})
	}

	for i, d := range deltas {
		a.fold(arrival{client: i, base: 5 - staleness[i], delta: compress.NewSparseDense(d)})
	}
	got, version := a.snapshot()
	if version != 6 {
		t.Fatalf("buffer of %d arrivals advanced to version %d, want 6", k, version)
	}
	for i := range got {
		if diff := math.Abs(got[i] - global[i]); diff > 1e-12*(1+math.Abs(global[i])) {
			t.Fatalf("param %d: wire buffer %v, fl.FedBuff %v (diff %g)", i, got[i], global[i], diff)
		}
	}
	if w := fl.StalenessWeight(3); math.Abs(w-1/math.Sqrt(4)) > 1e-15 {
		t.Fatalf("StalenessWeight(3) = %v, want 1/sqrt(4)", w)
	}
}

// TestAsyncStragglerNoEvictions is the acceptance scenario: ten async
// clients, one behind a 5×-slower injected link. The straggler must
// never be evicted — its cost appears only as staleness-histogram mass —
// and the session must land within tolerance of a lockstep (synchronous
// round) run on the same task.
func TestAsyncStragglerNoEvictions(t *testing.T) {
	const clients = 10
	const versions = 48 // one version per K arrivals; generous budget so the acc floor is stable
	const syncRounds = 12
	env := newTestEnv(clients, 600, 12, 16, 31)

	// Lockstep baseline: the synchronous round engine on the same task.
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 2
	cfg.ScaleRatiosForModel(env.newModel().NumParams())
	cfg.K = clients - 1
	srv, err := rpc.NewServer(rpc.ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients, Rounds: syncRounds,
		Cfg: cfg, NewModel: env.newModel, Test: env.test, EvalEvery: 1,
		Logf: quiet, StragglerTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var syncCfgs []rpc.ClientConfig
	for i := 0; i < clients; i++ {
		c := env.asyncClient(i, srv.Addr(), "")
		c.Async = false
		c.Utility = cfg.Utility
		c.UpBps, c.DownBps = 1e6, 1e6
		syncCfgs = append(syncCfgs, c)
	}
	syncDone := make(chan struct{})
	go func() { runClients(syncCfgs); close(syncDone) }()
	syncRes, err := srv.Run()
	if err != nil {
		t.Fatalf("lockstep baseline: %v", err)
	}
	<-syncDone

	// Async run: same task, one client behind a slow link.
	reg := obs.NewRegistry()
	a, err := NewAsync(AsyncConfig{
		Name: "edge", NewModel: env.newModel, Test: env.test,
		K: clients - 2, Versions: versions, Metrics: reg, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("edge", a); err != nil {
		t.Fatal(err)
	}
	go m.Serve()
	defer m.Close()
	cfgs := make([]rpc.ClientConfig, clients)
	for i := range cfgs {
		cfgs[i] = env.asyncClient(i, m.Addr(), "edge")
	}
	// Client 9: every message delayed — roughly a 5× slower cycle.
	cfgs[9].Fault = &rpc.FaultConfig{Latency: 40 * time.Millisecond}
	clientsDone := make(chan struct{})
	go func() { runClients(cfgs); close(clientsDone) }()
	res, err := a.Run()
	if err != nil {
		t.Fatalf("async session: %v", err)
	}
	<-clientsDone

	t.Logf("lockstep acc %.3f, async acc %.3f, staleness counts %v", syncRes.FinalAcc, res.FinalAcc, res.StalenessCounts)
	if res.Versions != versions {
		t.Fatalf("async session produced %d/%d versions", res.Versions, versions)
	}
	if res.Evictions != 0 {
		t.Fatalf("straggler evicted: %d evictions (async mode must never evict for slowness)", res.Evictions)
	}
	staleMass := 0
	for s, n := range res.StalenessCounts {
		if s >= 1 {
			staleMass += n
		}
	}
	if staleMass == 0 {
		t.Fatal("no staleness mass recorded: the straggler's cost vanished instead of showing up in the histogram")
	}
	if res.FinalAcc < 0.3 {
		t.Fatalf("async session did not learn: acc %.3f", res.FinalAcc)
	}
	if res.FinalAcc < syncRes.FinalAcc-0.3 {
		t.Fatalf("async acc %.3f too far below lockstep acc %.3f", res.FinalAcc, syncRes.FinalAcc)
	}
}

// chaosDir returns the checkpoint directory for the kill-and-resume
// test: ADAFL_CHAOS_CKPT_DIR when set (CI keeps it and runs the doctor
// CLI against it afterwards), else a per-test temp dir.
func chaosDir(t *testing.T) string {
	if dir := os.Getenv("ADAFL_CHAOS_CKPT_DIR"); dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// TestAsyncKillAndResume is the async chaos scenario: the engine is
// killed mid-stream (buffered arrivals lost, no farewells), then a new
// session resumes from the delta chain and finishes the budget. The
// combined event log must show a gapless version history and the doctor
// must find the surviving checkpoint consistent.
func TestAsyncKillAndResume(t *testing.T) {
	const clients = 4
	env := newTestEnv(clients, 320, 12, 8, 41)
	dir := chaosDir(t)
	eventPath := filepath.Join(dir, "events.jsonl")

	openLog := func() *obs.EventLog {
		l, err := obs.OpenEventLog(eventPath)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Phase 1: run until the chain holds a few versions, then crash.
	log1 := openLog()
	a1, err := NewAsync(AsyncConfig{
		Name: "chaos", NewModel: env.newModel, Test: env.test, EvalEvery: 2,
		K: 3, Versions: 1000, CheckpointDir: dir, Events: log1, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Register("chaos", a1); err != nil {
		t.Fatal(err)
	}
	go m1.Serve()
	cfgs := make([]rpc.ClientConfig, clients)
	for i := range cfgs {
		cfgs[i] = env.asyncClient(i, m1.Addr(), "chaos")
	}
	phase1Done := make(chan struct{})
	go func() { runClients(cfgs); close(phase1Done) }()
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for a1.Version() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		a1.Kill()
	}()
	res1, err := a1.Run()
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("killed session returned %v, want ErrKilled", err)
	}
	<-phase1Done
	m1.Close()
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}
	if res1.Versions < 3 {
		t.Fatalf("phase 1 died at version %d before the kill threshold", res1.Versions)
	}

	// A populated chain without Resume must be refused, not intermixed.
	if _, err := NewAsync(AsyncConfig{
		Name: "chaos", NewModel: env.newModel, K: 3, Versions: 1000,
		CheckpointDir: dir, Logf: quiet,
	}); err == nil {
		t.Fatal("NewAsync accepted a populated checkpoint dir without Resume")
	}

	// Phase 2: resume from the chain and finish a fixed budget.
	target := res1.Versions + 4
	log2 := openLog()
	a2, err := NewAsync(AsyncConfig{
		Name: "chaos", NewModel: env.newModel, Test: env.test, EvalEvery: 2,
		K: 3, Versions: target, CheckpointDir: dir, Resume: true,
		Events: log2, Logf: quiet,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if a2.Version() != res1.Versions {
		t.Fatalf("resumed at version %d, chain ends at %d", a2.Version(), res1.Versions)
	}
	m2, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Register("chaos", a2); err != nil {
		t.Fatal(err)
	}
	go m2.Serve()
	defer m2.Close()
	for i := range cfgs {
		cfgs[i] = env.asyncClient(i, m2.Addr(), "chaos")
	}
	phase2Done := make(chan struct{})
	go func() { runClients(cfgs); close(phase2Done) }()
	res2, err := a2.Run()
	if err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	<-phase2Done
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	if res2.ResumedFrom != res1.Versions {
		t.Fatalf("ResumedFrom = %d, want %d", res2.ResumedFrom, res1.Versions)
	}
	if res2.Versions != target {
		t.Fatalf("resumed session ended at version %d, want %d", res2.Versions, target)
	}
	if res2.Pushes <= res1.Pushes {
		t.Fatalf("resumed push counter %d did not carry over phase 1's %d", res2.Pushes, res1.Pushes)
	}

	// The doctor must find the surviving chain and the stitched event log
	// consistent: gapless versions across the crash.
	rep, err := Doctor(dir, eventPath, nil)
	if err != nil {
		t.Fatalf("doctor: %v", err)
	}
	if !rep.Healthy() {
		t.Fatalf("doctor found problems in a healthy crash-resume chain: %v", rep.Problems)
	}
	if rep.Round != target {
		t.Fatalf("doctor read round %d, want %d", rep.Round, target)
	}
	if rep.Events == 0 {
		t.Fatal("doctor examined no events despite a populated log")
	}
}

// TestMultiSessionIsolation pins the isolation contract: session B (one
// deterministic client) must produce a bitwise-identical global whether
// it runs alone or multiplexed next to session A, where an attacker is
// busy getting quarantined.
func TestMultiSessionIsolation(t *testing.T) {
	benv := newTestEnv(1, 200, 12, 8, 77)
	aenv := newTestEnv(4, 300, 12, 8, 177)

	runB := func(alongside bool) []float64 {
		m, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		b, err := NewAsync(AsyncConfig{Name: "b", NewModel: benv.newModel, K: 1, Versions: 5, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register("b", b); err != nil {
			t.Fatal(err)
		}
		var (
			a     *AsyncSession
			aDone chan *AsyncResult
		)
		attackerDone := make(chan error, 1)
		if alongside {
			a, err = NewAsync(AsyncConfig{
				Name: "a", NewModel: aenv.newModel, K: 4, Versions: 1000,
				MaxUpdateNorm: 8, Logf: quiet,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Register("a", a); err != nil {
				t.Fatal(err)
			}
			aDone = make(chan *AsyncResult, 1)
			go func() {
				res, _ := a.Run()
				aDone <- res
			}()
		}
		go m.Serve()
		if alongside {
			for i := 0; i < 3; i++ {
				cfg := aenv.asyncClient(i, m.Addr(), "a")
				go rpc.RunClient(cfg)
			}
			attacker := aenv.asyncClient(3, m.Addr(), "a")
			attacker.LR = 1e5 // absurd norm: the integrity screen must fire
			go func() {
				_, err := rpc.RunClient(attacker)
				attackerDone <- err
			}()
		}
		bDone := make(chan error, 1)
		go func() {
			cfg := benv.asyncClient(0, m.Addr(), "b")
			// The client races its next pipelined send against the final
			// farewell; a redial resolves it to a clean "session over".
			cfg.MaxRetries = 3
			cfg.RetryBackoff = 10 * time.Millisecond
			_, err := rpc.RunClient(cfg)
			bDone <- err
		}()
		bres, err := b.Run()
		if err != nil {
			t.Fatalf("session b: %v", err)
		}
		if cerr := <-bDone; cerr != nil {
			t.Fatalf("session b client: %v", cerr)
		}
		if bres.Versions != 5 {
			t.Fatalf("session b ended at version %d, want 5", bres.Versions)
		}
		if alongside {
			// The quarantine eviction closes the attacker's connection, so
			// its client exiting proves the screen fired.
			select {
			case <-attackerDone:
			case <-time.After(30 * time.Second):
				t.Fatal("attacker was never quarantined")
			}
			a.Kill()
			ares := <-aDone
			if len(ares.Quarantines) == 0 || ares.Evictions == 0 {
				t.Fatalf("session a recorded no quarantine (evictions=%d)", ares.Evictions)
			}
		}
		params, _ := b.snapshot()
		return append([]float64(nil), params...)
	}

	alone := runB(false)
	multiplexed := runB(true)
	if len(alone) != len(multiplexed) {
		t.Fatalf("dim mismatch: %d vs %d", len(alone), len(multiplexed))
	}
	for i := range alone {
		if alone[i] != multiplexed[i] {
			t.Fatalf("param %d differs bitwise: alone %v, multiplexed %v — session a leaked into session b",
				i, alone[i], multiplexed[i])
		}
	}
}

// TestDeltaCheckpointSteadyStateBytes pins the acceptance bound: with
// block-sparse updates, each steady-state delta epoch must cost at most
// 30% of a full snapshot, for two concurrently checkpointing sessions.
func TestDeltaCheckpointSteadyStateBytes(t *testing.T) {
	env := newTestEnv(1, 40, 16, 64, 51)
	for _, name := range []string{"alpha", "beta"} {
		dir := t.TempDir()
		a, err := NewAsync(AsyncConfig{
			Name: name, NewModel: env.newModel, K: 1, Versions: 100,
			CheckpointDir: dir, RebaseEvery: 64, Logf: quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Ten versions of block-sparse progress: only the first 256
		// parameters move, so positional chunking dedups the rest.
		for v := 0; v < 10; v++ {
			d := make([]float64, a.dim)
			for j := 0; j < 256; j++ {
				d[j] = float64(v+1) * 1e-3
			}
			a.fold(arrival{client: 0, base: a.Version(), delta: compress.NewSparseDense(d)})
		}
		a.tree.Close()
		a.joinCheckpoint() // what Run's return does: the tenth epoch is still in flight
		// GC leaves only the reachable epochs: the full base every delta
		// references, and the latest (steady-state) epoch.
		epochs, err := checkpoint.DeltaEpochs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(epochs) < 2 || epochs[len(epochs)-1] != 10 {
			t.Fatalf("session %s: surviving epochs %v, want a base plus the 10th", name, epochs)
		}
		size := func(epoch uint64) int64 {
			fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("delta-%08d.ckpt", epoch)))
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}
		full := size(epochs[0]) // the first epoch is a full rebase
		steady := size(epochs[len(epochs)-1])
		if steady > full*30/100 {
			t.Fatalf("session %s: steady-state epoch %d bytes exceeds 30%% of full snapshot %d bytes", name, steady, full)
		}
	}
}

// crashCopy is the image of a checkpoint directory a crash at this instant
// could leave, taken without waiting for the writer (the argument for the
// order and the second pass is on its twin in internal/rpc).
func crashCopy(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for pass := 0; pass < 2; pass++ {
		entries, err := os.ReadDir(src) // sorted by name: ascending epoch
		if err != nil {
			return err
		}
		for _, e := range entries {
			err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, fs.ErrExist) {
				return err
			}
		}
	}
	return nil
}

// TestAsyncDeltaCheckpointCrashCopiesResume is crash consistency while an
// epoch is in flight, at version boundaries: fold returns with version v's
// epoch committed, not joined, so a copy of the directory taken then is
// what a crash there leaves. Every copy must audit clean and resume at
// version v or v-1, never a torn chain.
func TestAsyncDeltaCheckpointCrashCopiesResume(t *testing.T) {
	const versions = 20
	env := newTestEnv(1, 40, 16, 64, 52)
	dir, copies := t.TempDir(), t.TempDir()
	baseline := runtime.NumGoroutine()
	a, err := NewAsync(AsyncConfig{
		Name: "copies", NewModel: env.newModel, K: 1, Versions: 100,
		CheckpointDir: dir, RebaseEvery: 6, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= versions; v++ {
		d := make([]float64, a.dim)
		for j := 0; j < 256; j++ {
			d[(j*v)%a.dim] = float64(v) * 1e-3
		}
		a.fold(arrival{client: 0, base: a.Version(), delta: compress.NewSparseDense(d)})
		if a.Version() != v {
			t.Fatalf("fold %d left version %d", v, a.Version())
		}
		if err := crashCopy(dir, filepath.Join(copies, fmt.Sprint(v))); err != nil {
			t.Fatal(err)
		}
	}
	a.joinCheckpoint() // what Run's return does
	a.tree.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the session", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if rep, err := Doctor(dir, "", nil); err != nil || !rep.Healthy() || rep.Round != versions {
		t.Fatalf("joined chain: %+v (err %v), want round %d", rep, err, versions)
	}

	for v := 1; v <= versions; v++ {
		cdir := filepath.Join(copies, fmt.Sprint(v))
		r, err := NewAsync(AsyncConfig{
			Name: "copies", NewModel: env.newModel, K: 1, Versions: 100,
			CheckpointDir: cdir, Resume: true, Logf: quiet,
		})
		if err != nil {
			t.Fatalf("copy at version %d does not resume: %v", v, err)
		}
		r.tree.Close()
		if got := r.Version(); got != v && got != v-1 {
			t.Fatalf("copy at version %d resumes at version %d, want %d or %d", v, got, v, v-1)
		}
		if r.Version() > 0 {
			if _, err := checkpoint.AuditDelta(cdir); err != nil {
				t.Fatalf("copy at version %d: %v", v, err)
			}
		}
	}
}
