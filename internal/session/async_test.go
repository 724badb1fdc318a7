package session

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
)

// TestAsyncBufferMatchesFedBuff pins the wire-mode buffer to the
// in-process fl.FedBuff strategy: fed the same deltas at the same
// stalenesses, both fold Σwᵢdᵢ into a shard.Partial and apply it once, so
// the next global is the same bits.
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
		a.fold(i, 5-staleness[i], compress.NewSparseDense(d))
	}
	got, version := a.snapshot()
	if version != 6 {
		t.Fatalf("buffer of %d arrivals advanced to version %d, want 6", k, version)
	}
	for i := range got {
		if got[i] != global[i] {
			t.Fatalf("param %d: wire buffer %v, fl.FedBuff %v", i, got[i], global[i])
		}
	}
	if w := fl.StalenessWeight(3); math.Abs(w-1/math.Sqrt(4)) > 1e-15 {
		t.Fatalf("StalenessWeight(3) = %v, want 1/sqrt(4)", w)
	}
}

// TestAsyncQuarantinesFiniteGiants: two pushes carrying 1e308 arrive
// first, and the norm gate, with one checked push in the version, is below
// the quorum it needs to judge anything; summed, they used to make the
// global +Inf. The fold window quarantines both by name on arrival, and
// the next version is bitwise the one a session makes from the honest push
// alone.
func TestAsyncQuarantinesFiniteGiants(t *testing.T) {
	env := newTestEnv(1, 40, 12, 4, 13)
	newSession := func(k int) *AsyncSession {
		a, err := NewAsync(AsyncConfig{NewModel: env.newModel, K: k, Eta: 0.5, Versions: 10, MaxUpdateNorm: 10, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	honest := func(dim int) *compress.Sparse {
		d := make([]float64, dim)
		for j := range d {
			d[j] = 0.01 * math.Sin(float64(j+1)*0.37)
		}
		return compress.NewSparseDense(d)
	}
	giant := func(dim int) *compress.Sparse {
		return &compress.Sparse{Dim: dim, Indices: []int32{0, 1}, Values: []float64{1e308, 0.5}}
	}

	a := newSession(3)
	a.fold(1, 0, giant(a.dim))
	a.fold(2, 0, giant(a.dim))
	a.fold(0, 0, honest(a.dim))
	ref := newSession(1)
	ref.fold(0, 0, honest(ref.dim))

	if len(a.res.Quarantines) != 2 {
		t.Fatalf("quarantined %+v, want both giants", a.res.Quarantines)
	}
	for _, q := range a.res.Quarantines {
		if !strings.Contains(q.Reason, "outside the fold window") {
			t.Errorf("client %d quarantined as %q, want the fold window", q.ClientID, q.Reason)
		}
	}
	got, gv := a.snapshot()
	want, wv := ref.snapshot()
	if gv != 1 || wv != 1 {
		t.Fatalf("versions %d and %d, want 1 and 1", gv, wv)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d: %v with the giants, %v without", i, got[i], want[i])
		}
	}
}

// TestAsyncGateIgnoresArrivalOrder: three honest pushes and one of about
// 100× their norm, inside the fold window, make a version of K = 4. The
// norm gate judges the version's median at apply, so the outlier is
// quarantined whether it is pushed first or last, and version 1 is bitwise
// the one a session makes from the honest pushes alone. The third run
// decodes every push into one scratch, as a connection's reader does: the
// gate must judge the pushes, not what the scratch holds by apply.
func TestAsyncGateIgnoresArrivalOrder(t *testing.T) {
	env := newTestEnv(1, 40, 12, 4, 13)
	newSession := func(k int) *AsyncSession {
		a, err := NewAsync(AsyncConfig{NewModel: env.newModel, K: k, Eta: 0.5, Versions: 10, MaxUpdateNorm: 10, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	push := func(client int, scale float64) func(*AsyncSession, *compress.Sparse) {
		return func(a *AsyncSession, scratch *compress.Sparse) {
			d := make([]float64, a.dim)
			for j := range d {
				d[j] = scale * 0.01 * math.Sin(float64(j+1)*0.37+float64(client))
			}
			u := compress.NewSparseDense(d)
			if scratch != nil {
				*scratch, u = *u, scratch
			}
			a.fold(client, 0, u)
		}
	}
	type pushFn = func(*AsyncSession, *compress.Sparse)
	honest := []pushFn{push(0, 1), push(1, 1), push(2, 1)}
	outlier := push(9, 100)

	ref := newSession(3)
	for _, p := range honest {
		p(ref, nil)
	}
	want, wv := ref.snapshot()
	if wv != 1 || len(ref.res.Quarantines) != 0 {
		t.Fatalf("reference: version %d, quarantined %+v", wv, ref.res.Quarantines)
	}
	for _, run := range []struct {
		name    string
		order   []pushFn
		scratch *compress.Sparse
	}{
		{"outlier first", []pushFn{outlier, honest[0], honest[1], honest[2]}, nil},
		{"outlier last", []pushFn{honest[0], honest[1], honest[2], outlier}, nil},
		{"outlier first, one scratch", []pushFn{outlier, honest[0], honest[1], honest[2]}, new(compress.Sparse)},
	} {
		name, a := run.name, newSession(4)
		for _, p := range run.order {
			p(a, run.scratch)
		}
		if q := a.res.Quarantines; len(q) != 1 || q[0].ClientID != 9 || !strings.Contains(q[0].Reason, "round median") {
			t.Fatalf("%s: quarantined %+v, want client 9 by the round median", name, q)
		}
		got, gv := a.snapshot()
		if gv != 1 {
			t.Fatalf("%s: version %d, want 1", name, gv)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: param %d: %v with the outlier, %v without", name, i, got[i], want[i])
			}
		}
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
	// Client 9: every transfer (a push and its pull) 80 ms late — roughly
	// a 5× slower cycle.
	cfgs[9].Fault = &rpc.FaultConfig{Link: &netsim.Link{UpBps: 1e9, DownBps: 1e9, LatencyS: 0.08}}
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
// session resumes from the snapshot and finishes the budget. The
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

	// Phase 1: run a few versions, then crash.
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

	// A populated directory without Resume must be refused, not overwritten.
	if _, err := NewAsync(AsyncConfig{
		Name: "chaos", NewModel: env.newModel, K: 3, Versions: 1000,
		CheckpointDir: dir, Logf: quiet,
	}); err == nil {
		t.Fatal("NewAsync accepted a populated checkpoint dir without Resume")
	}

	// Phase 2: resume from the snapshot and finish a fixed budget.
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
		t.Fatalf("resumed at version %d, checkpoint ends at %d", a2.Version(), res1.Versions)
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

	// The doctor must find the surviving snapshot and the stitched event log
	// consistent: gapless versions across the crash.
	rep, err := Doctor(dir, eventPath, nil)
	if err != nil {
		t.Fatalf("doctor: %v", err)
	}
	if !rep.Healthy() {
		t.Fatalf("doctor found problems in a healthy crash-resume checkpoint: %v", rep.Problems)
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

// crashCopy is the image of a checkpoint directory a crash at this instant
// could leave, taken without waiting for the writer (the argument is on its
// twin in internal/rpc).
//
// A link that fails with ENOENT is retried while the name still exists in
// src: link(2) fails that way too when the inode it looked up loses its
// last link to a concurrent rename over the name, and the file now under
// the name is what a crash would leave. Only a name really gone (a temp
// file renamed away) is skipped. wantSnapshot says an earlier snapshot is
// already durable, so a copy without snapshot.ckpt is an error.
func crashCopy(src, dst string, wantSnapshot bool) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		for try := 0; ; try++ {
			err := os.Link(from, to)
			if err == nil {
				break
			}
			if !errors.Is(err, fs.ErrNotExist) || try == 100 {
				return err
			}
			if _, err := os.Lstat(from); errors.Is(err, fs.ErrNotExist) {
				break // renamed away: a crash leaves no such file either
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dst, "snapshot.ckpt")); wantSnapshot && err != nil {
		return fmt.Errorf("the copy holds no snapshot: %w", err)
	}
	return nil
}

// TestAsyncDeltaCheckpointCrashCopiesResume is crash consistency while a
// write is in flight, at version boundaries: fold returns with version v's
// snapshot committed, not joined, so a copy of the directory taken then is
// what a crash there leaves. Every copy must read back clean and resume at
// version v or v-1, never a torn file.
func TestAsyncDeltaCheckpointCrashCopiesResume(t *testing.T) {
	const versions = 20
	env := newTestEnv(1, 40, 16, 64, 52)
	dir, copies := t.TempDir(), t.TempDir()
	baseline := runtime.NumGoroutine()
	a, err := NewAsync(AsyncConfig{
		Name: "copies", NewModel: env.newModel, K: 1, Versions: 100,
		CheckpointDir: dir, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= versions; v++ {
		d := make([]float64, a.dim)
		for j := 0; j < 256; j++ {
			d[(j*v)%a.dim] = float64(v) * 1e-3
		}
		a.fold(0, a.Version(), compress.NewSparseDense(d))
		if a.Version() != v {
			t.Fatalf("fold %d left version %d", v, a.Version())
		}
		if err := crashCopy(dir, filepath.Join(copies, fmt.Sprint(v)), v > 1); err != nil {
			t.Fatal(err)
		}
	}
	a.joinCheckpoint() // what Run's return does
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the session", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if rep, err := Doctor(dir, "", nil); err != nil || !rep.Healthy() || rep.Round != versions {
		t.Fatalf("joined snapshot: %+v (err %v), want round %d", rep, err, versions)
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
		if got := r.Version(); got != v && got != v-1 {
			t.Fatalf("copy at version %d resumes at version %d, want %d or %d", v, got, v, v-1)
		}
		if r.Version() > 0 {
			if _, err := checkpoint.ReadSnapshot(cdir); err != nil {
				t.Fatalf("copy at version %d: %v", v, err)
			}
		}
	}
}

// TestAsyncResumeBoundsQuarantineLog: the async session keeps its
// quarantine log under the sync server's cap. A snapshot carrying more
// records than the cap (a log from disk is input) resumes with the
// newest shard.QuarantineLogCap kept and the rest added to the dropped
// count it carried.
func TestAsyncResumeBoundsQuarantineLog(t *testing.T) {
	env := newTestEnv(1, 40, 12, 4, 13)
	dir := t.TempDir()
	const over, dropped = 100, 7
	recs := make([]shard.QuarantineRecord, shard.QuarantineLogCap+over)
	for i := range recs {
		recs[i] = shard.QuarantineRecord{Round: i, ClientID: i % 3, Reason: "norm"}
	}
	w, _, err := checkpoint.Open(dir, false, quiet)
	if err != nil {
		t.Fatal(err)
	}
	meta := &asyncSnapshot{Version: 2, K: 1, Quarantines: recs, QuarantinesDropped: dropped}
	w.Snapshot(meta, checkpoint.Vector{Name: "global", Vals: env.newModel().ParamVector()})
	if res, _ := w.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}

	a, err := NewAsync(AsyncConfig{NewModel: env.newModel, K: 1, Versions: 10,
		CheckpointDir: dir, Resume: true, Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	got := a.res.Quarantines
	if len(got) != shard.QuarantineLogCap || got[0].Round != over || got[len(got)-1].Round != len(recs)-1 {
		t.Fatalf("resumed log holds %d records, rounds %d..%d; want the newest %d (rounds %d..%d)",
			len(got), got[0].Round, got[len(got)-1].Round, shard.QuarantineLogCap, over, len(recs)-1)
	}
	if a.res.QuarantinesDropped != dropped+over {
		t.Fatalf("dropped = %d, want %d", a.res.QuarantinesDropped, dropped+over)
	}
}

// TestAsyncSnapshotBytesDependOnlyOnState captures one async state with an
// eight-entry staleness histogram twenty times, wants one snapshot file,
// and reads the histogram back as pairs in staleness order.
func TestAsyncSnapshotBytesDependOnlyOnState(t *testing.T) {
	dir := t.TempDir()
	w, _, err := checkpoint.Open(dir, false, quiet)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for s := 0; s < 8; s++ {
		counts[s] = 10 - s
	}
	a := &AsyncSession{cfg: AsyncConfig{K: 2}, roster: rpc.NewRoster(false), ckpt: w,
		res:    &AsyncResult{StalenessCounts: counts},
		report: checkpoint.NewReporter(nil, "", nil, func(v int, err error) { t.Errorf("version %d: %v", v, err) })}
	params := []float64{1, -2, 3}
	var want []byte
	for i := 0; i < 20; i++ {
		a.saveCheckpoint(4, params)
		a.report.Joined(w.Wait())
		got, err := os.ReadFile(filepath.Join(dir, "snapshot.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("capture %d wrote other bytes than capture 0 of the same state", i)
		}
	}
	var meta asyncSnapshot
	if snap, err := checkpoint.ReadSnapshot(dir); err != nil {
		t.Fatal(err)
	} else if err := snap.Restore(&meta, checkpoint.Vector{Name: "global", Vals: params}); err != nil {
		t.Fatal(err)
	}
	for i, kv := range meta.StalenessCounts {
		if kv != [2]int{i, counts[i]} {
			t.Fatalf("staleness pair %d = %v, want [%d %d]", i, kv, i, counts[i])
		}
	}
}
