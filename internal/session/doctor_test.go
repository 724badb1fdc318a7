package session

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/edge"
	"adafl/internal/obs"
)

// writeDeltaChain writes n async snapshots to dir in turn, each advancing
// the version and perturbing a small prefix of the global vector.
func writeDeltaChain(t *testing.T, dir string, n, dim int) {
	t.Helper()
	w, err := checkpoint.NewDeltaWriter(dir, checkpoint.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, dim)
	for v := 1; v <= n; v++ {
		for j := 0; j < 32; j++ {
			params[j] = float64(v) * 0.01
		}
		snap := &asyncSnapshot{Version: v, K: 2, Pushes: v * 2}
		if res, ok := w.Snapshot(snap, checkpoint.Vector{Name: "global", Vals: params}); ok && res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if res, _ := w.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// writeEventLog writes one "version" mark per value to path.
func writeEventLog(t *testing.T, path string, versions []int) {
	t.Helper()
	l, err := obs.OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		l.Emit(obs.Event{Type: "version", Round: v, Client: -1})
	}
	l.Emit(obs.Event{Type: "push", Round: versions[len(versions)-1], Client: 0})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDoctorHealthyDeltaChain(t *testing.T) {
	dir := t.TempDir()
	writeDeltaChain(t, dir, 4, 1024)
	events := filepath.Join(t.TempDir(), "events.jsonl")
	writeEventLog(t, events, []int{1, 2, 3, 3, 4}) // duplicate 3 is legal (crash replay)
	var out strings.Builder
	rep, err := Doctor(dir, events, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("healthy snapshot reported problems: %v", rep.Problems)
	}
	if rep.Round != 4 {
		t.Fatalf("report misread the snapshot: %+v", rep)
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.ckpt")); err != nil || rep.Events == 0 || rep.Size != fi.Size() {
		t.Fatalf("report missing audit detail: %+v", rep)
	}
	if !strings.Contains(out.String(), "consistent") {
		t.Fatalf("summary line missing from output:\n%s", out.String())
	}
}

func TestDoctorDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	writeDeltaChain(t, dir, 3, 1024)
	flipLatestEpoch(t, dir)
	rep, err := Doctor(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("doctor passed a bit-flipped snapshot")
	}
}

func TestDoctorDetectsEventGap(t *testing.T) {
	dir := t.TempDir()
	writeDeltaChain(t, dir, 5, 512)
	events := filepath.Join(t.TempDir(), "events.jsonl")
	writeEventLog(t, events, []int{1, 2, 4, 5}) // version 3 vanished
	rep, err := Doctor(dir, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("doctor passed an event log with a version gap")
	}
}

// TestDoctorDetectsLaggingCheckpoint pins both sides of the pipelined
// writer's bound: a hard crash loses the one write in flight, so a
// snapshot one mark behind its event log is healthy; two behind is not.
func TestDoctorDetectsLaggingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	writeDeltaChain(t, dir, 2, 512)
	for _, tc := range []struct {
		marks   []int
		healthy bool
	}{
		{[]int{1, 2}, true},
		{[]int{1, 2, 3}, true}, // version 3's write was in flight at the crash
		{[]int{1, 2, 3, 4}, false},
		{[]int{1, 2, 3, 4, 5}, false},
	} {
		events := filepath.Join(t.TempDir(), "events.jsonl")
		writeEventLog(t, events, tc.marks)
		rep, err := Doctor(dir, events, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Healthy() != tc.healthy {
			t.Fatalf("snapshot at version 2, event log %v: healthy=%v (%v), want %v",
				tc.marks, rep.Healthy(), rep.Problems, tc.healthy)
		}
	}
}

// flipLatestEpoch flips one bit in the middle of the snapshot file.
func flipLatestEpoch(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "snapshot.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDoctorRootChain: a root's checkpoint directory audits like any
// other — it has the shared layout — against the root's own event log.
func TestDoctorRootChain(t *testing.T) {
	const rounds, clients, dim = 5, 4, 64
	dir := t.TempDir()
	events := filepath.Join(t.TempDir(), "events.jsonl")
	log, err := obs.OpenEventLog(events)
	if err != nil {
		t.Fatal(err)
	}
	root, err := edge.NewRoot(edge.RootConfig{
		NumEdges: 1, Clients: clients, Rounds: rounds, Dim: dim,
		CheckpointDir: dir, Events: log, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := edge.NewEdge(edge.EdgeConfig{
		ID: 0, RootAddr: root.EdgeAddr(), Dim: dim,
		HeartbeatInterval: 30 * time.Millisecond, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 3)
	go func() { _, err := root.Run(); errs <- err }()
	go func() { _, err := e.Run(); errs <- err }()
	go func() {
		errs <- edge.RunClients(edge.ClientsConfig{
			Bootstrap: root.BootstrapAddr(), Lo: 0, Hi: clients, Dim: dim, Nnz: 4, Seed: 5,
			MaxRetries: 100, RetryBackoff: 20 * time.Millisecond,
		})
	}()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("tree session: %v", err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Doctor(dir, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.Round != rounds-1 || rep.Events == 0 {
		t.Fatalf("healthy root snapshot misjudged: %+v", rep)
	}

	// An event log two marks past the snapshot: a root write failed. One
	// past is the write a crash caught in flight.
	for ahead, healthy := range map[int]bool{1: true, 2: false} {
		marks := make([]int, rounds+ahead)
		for i := range marks {
			marks[i] = i
		}
		lagged := filepath.Join(t.TempDir(), "events.jsonl")
		writeEventLog(t, lagged, marks)
		rep, err := Doctor(dir, lagged, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Healthy() != healthy {
			t.Fatalf("root snapshot at round %d, event log to %d: healthy=%v (%v), want %v",
				rounds-1, marks[len(marks)-1], rep.Healthy(), rep.Problems, healthy)
		}
	}

	flipLatestEpoch(t, dir)
	if rep, err := Doctor(dir, "", nil); err != nil || rep.Healthy() {
		t.Fatalf("doctor passed a bit-flipped root snapshot: %+v (err %v)", rep, err)
	}
}

func TestDoctorEmptyDirIsAnError(t *testing.T) {
	if _, err := Doctor(t.TempDir(), "", nil); err == nil {
		t.Fatal("doctor audited an empty directory without error")
	}
}
