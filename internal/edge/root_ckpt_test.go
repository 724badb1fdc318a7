package edge

import (
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
	"adafl/internal/obs"
)

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

// loadedRound is the round a resume from dir would restore into a dim-sized
// global, -1 when dir holds no chain.
func loadedRound(t *testing.T, dir string, dim int) int {
	t.Helper()
	snap, err := checkpoint.ReadSnapshot(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return -1
	}
	var meta rootSnapshot
	if err == nil {
		err = snap.Restore(&meta, checkpoint.Vector{Name: "global", Vals: make([]float64, dim)})
	}
	if err != nil {
		t.Fatalf("chain in %s does not load: %v", dir, err)
	}
	return meta.CompletedRound
}

// TestRootCheckpointCrashCopiesResume is the root's twin of the flat
// server's TestDeltaCheckpointCrashCopiesResume: OnRound runs right after
// round r's epoch was committed, so a copy of the directory taken there,
// without joining, is what a crash at that point leaves. Every copy must
// audit clean and load round r or r-1; a tree resumed from one ends on a
// global bit-equal to the uninterrupted run. The same run pins the shared
// report path: one checkpoint event per round under the snapshot's own
// round with its seconds, one wait observation per join.
func TestRootCheckpointCrashCopiesResume(t *testing.T) {
	const rounds = 12
	tc := treeCfg{edges: 2, clients: 16, rounds: rounds, dim: 128, nnz: 8, seed: 13}
	uninterrupted := runTree(t, tc)

	dir, copies := t.TempDir(), t.TempDir()
	copyDir := func(r int) string { return filepath.Join(copies, fmt.Sprintf("round-%02d", r)) }
	reg := obs.NewRegistry()
	eventPath := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.OpenEventLog(eventPath)
	if err != nil {
		t.Fatal(err)
	}
	tcCopy := tc
	tcCopy.ckptDir, tcCopy.metrics, tcCopy.events = dir, reg, events
	tcCopy.onRound = func(round int, _ []float64) {
		if err := crashCopy(dir, copyDir(round)); err != nil {
			t.Errorf("copy at round %d: %v", round, err)
		}
	}
	baseline := runtime.NumGoroutine()
	res := runTree(t, tcCopy)
	waitGoroutines(t, baseline)
	if !bitEqual(res.Global, uninterrupted.Global) {
		t.Fatal("checkpointing changed the global")
	}

	// Run joined the last epoch: the directory itself holds the last round.
	if _, err := checkpoint.AuditDelta(dir); err != nil {
		t.Fatalf("final chain: %v", err)
	}
	if got := loadedRound(t, dir, tc.dim); got != rounds-1 {
		t.Fatalf("joined chain holds round %d, want %d", got, rounds-1)
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
		t.Fatalf("%d join waits observed, want one per epoch (%d)", n, rounds)
	}
	if n := reg.Histogram("adafl_checkpoint_seconds", obs.LatencyBuckets).Count(); n != rounds {
		t.Fatalf("%d epochs timed, want %d", n, rounds)
	}
	if reg.Gauge("adafl_checkpoint_bytes").Value() == 0 {
		t.Fatal("adafl_checkpoint_bytes never set")
	}

	loaded := make([]int, rounds) // round each copy restores, -1 for none
	for r := 0; r < rounds; r++ {
		loaded[r] = loadedRound(t, copyDir(r), tc.dim)
		if loaded[r] >= 0 {
			if _, err := checkpoint.AuditDelta(copyDir(r)); err != nil {
				t.Fatalf("copy at round %d: %v", r, err)
			}
		}
		if loaded[r] != r && loaded[r] != r-1 {
			t.Fatalf("copy at round %d restores round %d, want %d or %d", r, loaded[r], r, r-1)
		}
	}

	// A fresh tree (new edges, new clients) resumed from a mid-run copy.
	const from = 6
	tcResume := tc
	tcResume.ckptDir, tcResume.resume = copyDir(from), true
	resumed := runTree(t, tcResume)
	if resumed.Resumed != loaded[from]+1 {
		t.Fatalf("resumed %d rounds, want %d", resumed.Resumed, loaded[from]+1)
	}
	if len(resumed.History) != rounds {
		t.Fatalf("history covers %d rounds, want %d", len(resumed.History), rounds)
	}
	if !bitEqual(resumed.Global, uninterrupted.Global) {
		t.Fatal("a tree resumed from a crash copy diverges bitwise from the uninterrupted run")
	}
	// The resumed writer swept whatever temp file the copy caught.
	if tmp, _ := filepath.Glob(filepath.Join(copyDir(from), "*.tmp*")); len(tmp) != 0 {
		t.Fatalf("temp files survived the resume: %v", tmp)
	}
	waitGoroutines(t, baseline)
}

// TestRootCheckpointWriteErrorContinues is the root arm of the flat
// server's TestDeltaCheckpointWriteErrorContinues: the checkpoint
// directory goes away mid-run and comes back. Each failed epoch is
// reported at its join under its own round, the tree trains on and
// finishes, the epochs after the outage reuse the failed numbers, and the
// chain ends whole at the last round. (Moved aside, not chmod'ed: root
// ignores mode bits.)
func TestRootCheckpointWriteErrorContinues(t *testing.T) {
	const (
		rounds  = 8
		goneAt  = 2 // OnRound of this round takes the directory away
		backAt  = 5 // OnRound of this round restores it
		certain = 2 // rounds goneAt+1 .. backAt-1 are committed and joined inside the outage
	)
	dir := filepath.Join(t.TempDir(), "ckpt")
	var mu sync.Mutex
	var failed []string
	tc := treeCfg{edges: 2, clients: 16, rounds: rounds, dim: 128, nnz: 8, seed: 14, ckptDir: dir}
	tc.logf = func(format string, args ...interface{}) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "failed (continuing)") {
			mu.Lock()
			failed = append(failed, line)
			mu.Unlock()
		}
	}
	tc.onRound = func(round int, _ []float64) {
		var err error
		switch round {
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
	res := runTree(t, tc) // fails the test if the root returns an error
	waitGoroutines(t, baseline)
	if len(res.History) != rounds {
		t.Fatalf("session ended with %d/%d rounds", len(res.History), rounds)
	}
	// The epochs of rounds goneAt and backAt were in flight when the
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
	audit, err := checkpoint.AuditDelta(dir)
	if err != nil {
		t.Fatalf("chain after the outage: %v", err)
	}
	if want := uint64(rounds - len(failed)); audit.Latest != want {
		t.Fatalf("chain ends at epoch %d, want %d: a failed epoch's number was not reused", audit.Latest, want)
	}
	if got := loadedRound(t, dir, tc.dim); got != rounds-1 {
		t.Fatalf("chain after the outage loads round %d, want %d", got, rounds-1)
	}
}
