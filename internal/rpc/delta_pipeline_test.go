package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/core"
	"adafl/internal/obs"
)

// crashCopy takes the image of a checkpoint directory a crash at this
// instant could leave, without waiting for the writer: every file present
// is hard-linked into dst. The snapshot file is never written in place, only
// renamed over, so a link holds one complete snapshot; a temp file of the
// write in flight, whole or half-written or renamed away before its link,
// is exactly what a crash leaves.
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

// waitGoroutines fails the test unless the goroutine count returns to the
// baseline: connection handlers wind down shortly after their sockets
// close, a leaked checkpoint writer never would.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the session", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loadedRound is the round a resume from dir would restore into a model of
// dim parameters, -1 when dir holds no snapshot.
func loadedRound(t *testing.T, dir string, dim int) int {
	t.Helper()
	snap, err := checkpoint.ReadSnapshot(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return -1
	}
	var meta sessionSnapshot
	if err == nil {
		err = snap.Restore(&meta,
			checkpoint.Vector{Name: "global", Vals: make([]float64, dim)},
			checkpoint.Vector{Name: "gdelta", Vals: make([]float64, dim)})
	}
	if err != nil {
		t.Fatalf("snapshot in %s does not load: %v", dir, err)
	}
	return meta.CompletedRound
}

// runDeltaSession runs one delta-checkpointed session to the end of Run
// with the environment's clients and waits for them.
func runDeltaSession(t *testing.T, env *chaosEnv, scfg ServerConfig) (*ServerResult, error) {
	t.Helper()
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, env.clients)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	done := make(chan struct{})
	go func() { runClients(cfgs); close(done) }()
	res, err := srv.Run()
	<-done
	return res, err
}

// TestDeltaCheckpointCrashCopiesResume is crash consistency while a write
// is in flight: OnRound runs right after round r's snapshot was committed,
// so a copy of the directory taken there, without joining, is what a crash
// at that point leaves. Every copy must read back clean and load round r or
// r-1, never a torn file; resumed sessions finish with a gapless history. The
// same run pins the observability of the join: one checkpoint event per
// round under the snapshot's own round, one wait observation per join.
func TestDeltaCheckpointCrashCopiesResume(t *testing.T) {
	const rounds = 20
	env := newChaosEnv(2, 240, 12, 16, 75)
	dir, copies := t.TempDir(), t.TempDir()
	copyDir := func(r int) string { return filepath.Join(copies, fmt.Sprintf("round-%02d", r)) }

	reg := obs.NewRegistry()
	eventPath := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.OpenEventLog(eventPath)
	if err != nil {
		t.Fatal(err)
	}
	scfg := env.serverConfig(rounds)
	scfg.CheckpointDir = dir
	scfg.Metrics, scfg.Events = reg, events
	scfg.OnRound = func(rec RoundRecord) {
		if err := crashCopy(dir, copyDir(rec.Round), rec.Round > 0); err != nil {
			t.Errorf("copy at round %d: %v", rec.Round, err)
		}
	}
	baseline := runtime.NumGoroutine()
	if _, err := runDeltaSession(t, env, scfg); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)

	// Run joined the last write: the directory itself holds the last round.
	if _, err := checkpoint.ReadSnapshot(dir); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	eventFile, err := os.Open(eventPath)
	if err != nil {
		t.Fatal(err)
	}
	defer eventFile.Close()
	logged, err := obs.ReadEvents(eventFile)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, e := range logged {
		if e.Type != "checkpoint" {
			continue
		}
		if e.Round != next || e.Bytes == 0 || e.Seconds <= 0 {
			t.Fatalf("checkpoint event %+v, want round %d with its size and seconds", e, next)
		}
		next++
	}
	if next != rounds {
		t.Fatalf("%d checkpoint events for %d rounds", next, rounds)
	}
	if n := reg.Histogram("adafl_checkpoint_wait_seconds", obs.LatencyBuckets).Count(); n != rounds {
		t.Fatalf("%d join waits observed, want one per snapshot (%d)", n, rounds)
	}
	if n := reg.Histogram("adafl_checkpoint_seconds", obs.LatencyBuckets).Count(); n != rounds {
		t.Fatalf("%d snapshots timed, want %d", n, rounds)
	}

	loaded := make([]int, rounds) // round each copy restores, -1 for none
	for r := 0; r < rounds; r++ {
		loaded[r] = loadedRound(t, copyDir(r), env.newModel().NumParams())
		if loaded[r] >= 0 {
			if _, err := checkpoint.ReadSnapshot(copyDir(r)); err != nil {
				t.Fatalf("copy at round %d: %v", r, err)
			}
		}
		if loaded[r] != r && loaded[r] != r-1 {
			t.Fatalf("copy at round %d restores round %d, want %d or %d", r, loaded[r], r, r-1)
		}
	}

	for _, r := range []int{1, 10} {
		rcfg := env.serverConfig(rounds)
		rcfg.CheckpointDir, rcfg.Resume = copyDir(r), true
		res, err := runDeltaSession(t, env, rcfg)
		if err != nil {
			t.Fatalf("resume from the copy at round %d: %v", r, err)
		}
		if res.ResumedFrom != loaded[r]+1 {
			t.Fatalf("copy at round %d: ResumedFrom = %d, want %d", r, res.ResumedFrom, loaded[r]+1)
		}
		if len(res.Rounds) != rounds {
			t.Fatalf("copy at round %d: resumed session ended with %d/%d rounds", r, len(res.Rounds), rounds)
		}
		for i, rec := range res.Rounds {
			if rec.Round != i {
				t.Fatalf("copy at round %d: history gap at index %d (round %d)", r, i, rec.Round)
			}
		}
		// The resumed writer swept whatever temp file the copy caught.
		if tmp, _ := filepath.Glob(filepath.Join(copyDir(r), "*.tmp*")); len(tmp) != 0 {
			t.Fatalf("copy at round %d: temp files survived the resume: %v", r, tmp)
		}
	}
	waitGoroutines(t, baseline)
}

// TestDeltaCheckpointWriteErrorContinues: the checkpoint directory goes
// away mid-run and comes back. Each failed write is reported at its join
// under its own round, the session trains on and finishes, and the
// snapshot ends whole at the last round. (Moved aside, not chmod'ed: root
// ignores mode bits.)
func TestDeltaCheckpointWriteErrorContinues(t *testing.T) {
	const (
		rounds  = 8
		goneAt  = 2 // OnRound of this round takes the directory away
		backAt  = 5 // OnRound of this round restores it
		certain = 2 // rounds goneAt+1 .. backAt-1 are committed and joined inside the outage
	)
	env := newChaosEnv(2, 240, 12, 16, 76)
	dir := filepath.Join(t.TempDir(), "ckpt")
	var mu sync.Mutex
	var failed []string
	scfg := env.serverConfig(rounds)
	scfg.CheckpointDir = dir
	scfg.Logf = func(format string, args ...interface{}) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "failed (continuing)") {
			mu.Lock()
			failed = append(failed, line)
			mu.Unlock()
		}
	}
	scfg.OnRound = func(rec RoundRecord) {
		var err error
		switch rec.Round {
		case goneAt:
			err = os.Rename(dir, dir+".away")
		case backAt:
			err = os.Rename(dir+".away", dir)
		}
		if err != nil {
			t.Error(err)
		}
	}
	baseline := runtime.NumGoroutine()
	res, err := runDeltaSession(t, env, scfg)
	if err != nil {
		t.Fatalf("session with a checkpoint outage: %v", err)
	}
	waitGoroutines(t, baseline)
	if len(res.Rounds) != rounds {
		t.Fatalf("session ended with %d/%d rounds", len(res.Rounds), rounds)
	}
	// The writes of rounds goneAt and backAt were in flight when the
	// directory moved, so they may have landed or not; the ones between
	// failed for certain, and nothing outside that window did.
	if len(failed) < certain || len(failed) > certain+2 {
		t.Fatalf("%d failed checkpoints logged, want %d to %d:\n%s", len(failed), certain, certain+2, strings.Join(failed, "\n"))
	}
	for r := goneAt + 1; r < backAt; r++ {
		want := fmt.Sprintf("checkpoint after round %d failed", r+1)
		if !strings.Contains(strings.Join(failed, "\n"), want) {
			t.Fatalf("no %q among:\n%s", want, strings.Join(failed, "\n"))
		}
	}
	if got := loadedRound(t, dir, env.newModel().NumParams()); got != rounds-1 {
		t.Fatalf("snapshot after the outage loads round %d, want %d", got, rounds-1)
	}
}

// TestSnapshotBytesDependOnlyOnState captures one session state twenty
// times, with eight clients in the selector's history and eight links in
// the negotiator's, and wants one snapshot file: gob writes a map in
// iteration order, so a meta that carried these as maps wrote a state as
// many byte strings.
func TestSnapshotBytesDependOnlyOnState(t *testing.T) {
	dir := t.TempDir()
	w, _, err := checkpoint.Open(dir, false, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := core.NewNegotiator(core.DefaultNegotiation(), core.DefaultController())
	if err != nil {
		t.Fatal(err)
	}
	lastSel := map[int]int{}
	for id := 0; id < 8; id++ {
		lastSel[id] = 3 + id%3
		neg.RecordUpload(id, 1000+100*id)
	}
	s := &Server{cfg: ServerConfig{NumClients: 8, Rounds: 10}, neg: neg, ckpt: w,
		report: checkpoint.NewReporter(nil, "", nil, func(round int, err error) { t.Errorf("round %d: %v", round, err) })}
	global, gdelta := []float64{1, -2, 3}, []float64{0.5, 0, -0.25}
	var want []byte
	for i := 0; i < 20; i++ {
		s.saveCheckpoint(5, global, gdelta, lastSel, &ServerResult{})
		s.joinCheckpoint()
		got, err := os.ReadFile(filepath.Join(dir, "snapshot.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("capture %d wrote other bytes than capture 0 of the same state", i)
		}
	}
}
