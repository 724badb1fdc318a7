package rpc

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adafl/internal/checkpoint"
)

// TestChaosKillRestartResume is the crash-recovery acceptance scenario:
// the server is killed (no farewells, listener and links torn down)
// after round killAfter, a new server process resumes from the
// checkpoint on the same address, the clients ride out the outage on
// their jittered redial loops, and the session finishes all configured
// rounds with a gapless history and accuracy near a fault-free run.
func TestChaosKillRestartResume(t *testing.T) {
	const (
		rounds    = 10
		killAfter = 4 // completed rounds before the simulated crash
	)
	env := newChaosEnv(4, 600, 16, 32, 71)

	// Fault-free baseline for the accuracy comparison.
	cleanSrv, err := NewServer(env.serverConfig(rounds))
	if err != nil {
		t.Fatal(err)
	}
	cleanCfgs := make([]ClientConfig, 4)
	for i := range cleanCfgs {
		cleanCfgs[i] = env.clientConfig(i, cleanSrv.Addr())
	}
	cleanDone := make(chan struct{})
	go func() { runClients(cleanCfgs); close(cleanDone) }()
	cleanRes, err := cleanSrv.Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	<-cleanDone

	dir := t.TempDir()

	// First server: checkpoints every round, crashes after killAfter of
	// them.
	scfg1 := env.serverConfig(rounds)
	scfg1.CheckpointDir = dir
	var srv1 *Server
	scfg1.OnRound = func(rec RoundRecord) {
		if rec.Round == killAfter-1 {
			srv1.Kill()
		}
	}
	srv1, err = NewServer(scfg1)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	cfgs := make([]ClientConfig, 4)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, addr)
		// Generous redial budget with small jittered backoff: the fleet
		// must outlive the dead-server window between crash and rebind.
		cfgs[i].MaxRetries = 100
		cfgs[i].RetryBackoff = 20 * time.Millisecond
	}
	type clientOut struct {
		res  []*ClientResult
		errs []error
	}
	outCh := make(chan clientOut, 1)
	go func() {
		r, e := runClients(cfgs)
		outCh <- clientOut{r, e}
	}()

	res1, err := srv1.Run()
	if !errors.Is(err, ErrServerKilled) {
		t.Fatalf("killed server returned %v, want ErrServerKilled", err)
	}
	if len(res1.Rounds) != killAfter {
		t.Fatalf("first server completed %d rounds, want %d", len(res1.Rounds), killAfter)
	}
	if _, err := checkpoint.ReadSnapshot(dir); err != nil {
		t.Fatalf("no checkpoint on disk after the crash: %v", err)
	}

	// "Restart the process": a new server on the same address resuming
	// from the same checkpoint directory. The rebind retries briefly in
	// case the old listener's port lingers.
	scfg2 := env.serverConfig(rounds)
	scfg2.Addr = addr
	scfg2.CheckpointDir = dir
	scfg2.Resume = true
	var srv2 *Server
	for attempt := 0; ; attempt++ {
		srv2, err = NewServer(scfg2)
		if err == nil {
			break
		}
		if attempt >= 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res2, err := srv2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	out := <-outCh

	if res2.ResumedFrom != killAfter {
		t.Fatalf("ResumedFrom = %d, want %d", res2.ResumedFrom, killAfter)
	}
	if len(res2.Rounds) != rounds {
		t.Fatalf("resumed session ended with %d/%d rounds", len(res2.Rounds), rounds)
	}
	for i, rec := range res2.Rounds {
		if rec.Round != i {
			t.Fatalf("round history gap at index %d: record says round %d", i, rec.Round)
		}
	}
	// Every client rode out the crash via redial and ended cleanly.
	for i, cerr := range out.errs {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}
	for i, r := range out.res {
		if r == nil || r.Reconnects == 0 {
			t.Errorf("client %d never reconnected across the restart", i)
		}
	}
	if res2.FinalAcc < 0.3 {
		t.Fatalf("resumed session did not learn: acc %.3f", res2.FinalAcc)
	}
	if res2.FinalAcc < cleanRes.FinalAcc-0.3 {
		t.Fatalf("resumed acc %.3f too far below clean acc %.3f", res2.FinalAcc, cleanRes.FinalAcc)
	}
}

// TestResumeCompletedSession: a crash that lands after the final round's
// checkpoint leaves nothing to train. The resumed server must report the
// finished session immediately instead of blocking on a quorum that will
// never re-form.
func TestResumeCompletedSession(t *testing.T) {
	env := newChaosEnv(2, 160, 12, 16, 72)
	const rounds = 2
	dir := t.TempDir()
	scfg := env.serverConfig(rounds)
	scfg.CheckpointDir = dir
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 2)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	done := make(chan struct{})
	go func() { runClients(cfgs); close(done) }()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-done

	scfg2 := env.serverConfig(rounds)
	scfg2.CheckpointDir = dir
	scfg2.Resume = true
	srv2, err := NewServer(scfg2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res2, err := srv2.Run() // note: no clients dialing
	if err != nil {
		t.Fatalf("resume of completed session: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("completed-session resume took %v: it blocked on quorum", elapsed)
	}
	if len(res2.Rounds) != rounds {
		t.Fatalf("restored history has %d rounds, want %d", len(res2.Rounds), rounds)
	}
	if res2.ResumedFrom != rounds {
		t.Fatalf("ResumedFrom = %d, want %d", res2.ResumedFrom, rounds)
	}
	if res2.FinalAcc != res.FinalAcc {
		t.Fatalf("restored FinalAcc %.6f differs from original %.6f", res2.FinalAcc, res.FinalAcc)
	}
}

// TestResumeCorruptCheckpointIsFatal: a corrupt snapshot must abort the
// resume — silently training from scratch would masquerade as a resumed
// session.
func TestResumeCorruptCheckpointIsFatal(t *testing.T) {
	env := newChaosEnv(2, 160, 12, 16, 73)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	scfg := env.serverConfig(3)
	scfg.CheckpointDir = dir
	scfg.Resume = true
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Run()
	if err == nil {
		t.Fatal("resume from corrupt checkpoint succeeded")
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("error %v does not wrap checkpoint.ErrCorrupt", err)
	}
}

// TestSyncDeltaCheckpointResume: the synchronous engine's checkpoints
// survive a kill/restart cycle — the resumed server restores round history
// and model from the snapshot file.
func TestSyncDeltaCheckpointResume(t *testing.T) {
	const (
		rounds    = 6
		killAfter = 3
	)
	env := newChaosEnv(2, 240, 12, 16, 74)
	dir := t.TempDir()

	scfg1 := env.serverConfig(rounds)
	scfg1.CheckpointDir = dir
	var srv1 *Server
	scfg1.OnRound = func(rec RoundRecord) {
		if rec.Round == killAfter-1 {
			srv1.Kill()
		}
	}
	srv1, err := NewServer(scfg1)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	cfgs := make([]ClientConfig, 2)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, addr)
		cfgs[i].MaxRetries = 100
		cfgs[i].RetryBackoff = 20 * time.Millisecond
	}
	clientsDone := make(chan struct{})
	go func() { runClients(cfgs); close(clientsDone) }()
	res1, err := srv1.Run()
	if !errors.Is(err, ErrServerKilled) {
		t.Fatalf("killed server returned %v, want ErrServerKilled", err)
	}
	if len(res1.Rounds) != killAfter {
		t.Fatalf("first server completed %d rounds, want %d", len(res1.Rounds), killAfter)
	}
	if _, err := checkpoint.ReadSnapshot(dir); err != nil {
		t.Fatalf("no snapshot on disk after the crash: %v", err)
	}

	// The restart: same address, resume.
	scfg2 := env.serverConfig(rounds)
	scfg2.Addr = addr
	scfg2.CheckpointDir = dir
	scfg2.Resume = true
	var srv2 *Server
	for attempt := 0; ; attempt++ {
		srv2, err = NewServer(scfg2)
		if err == nil {
			break
		}
		if attempt >= 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res2, err := srv2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	<-clientsDone
	if res2.ResumedFrom != killAfter {
		t.Fatalf("ResumedFrom = %d, want %d", res2.ResumedFrom, killAfter)
	}
	if len(res2.Rounds) != rounds {
		t.Fatalf("resumed session ended with %d/%d rounds", len(res2.Rounds), rounds)
	}
	for i, rec := range res2.Rounds {
		if rec.Round != i {
			t.Fatalf("round history gap at index %d: record says round %d", i, rec.Round)
		}
	}
}
