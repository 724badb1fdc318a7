package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testMeta stands in for an engine's snapshot struct: a round, a NaN-able
// float (why the section is gob) and a map.
type testMeta struct {
	Done    int
	Acc     float64
	LastSel map[int]int
}

func (m *testMeta) Round() int { return m.Done }

// badMeta has nothing gob can send, so its capture fails.
type badMeta struct{ C chan int }

func (m *badMeta) Round() int { return 9 }

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	global := []float64{0.5, -1.25, 1e300, 0}
	gdelta := []float64{1, 2, 3, 4}
	for round := 0; round < 3; round++ {
		global[0] = float64(round)
		meta := &testMeta{Done: round, Acc: math.NaN(), LastSel: map[int]int{3: round}}
		joined, ok := w.Snapshot(meta, Vector{"global", global}, Vector{"gdelta", gdelta})
		if ok != (round > 0) || joined.Err != nil || (ok && joined.Label != round-1) {
			t.Fatalf("round %d joined %+v (ok %v), want the epoch of round %d", round, joined, ok, round-1)
		}
	}
	if res, ok := w.Wait(); !ok || res.Err != nil || res.Label != 2 || res.Size == 0 {
		t.Fatalf("last join %+v (ok %v)", res, ok)
	}

	snap, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size == 0 || snap.Round != 2 || snap.VectorLen("global") != 4 || snap.VectorLen("nope") != -1 {
		t.Fatalf("snapshot %+v: global %d, nope %d", snap, snap.VectorLen("global"), snap.VectorLen("nope"))
	}
	var meta testMeta
	g, d := make([]float64, 4), make([]float64, 4)
	if err := snap.Restore(&meta, Vector{"gdelta", d}, Vector{"global", g}); err != nil {
		t.Fatal(err)
	}
	if meta.Done != 2 || !math.IsNaN(meta.Acc) || meta.LastSel[3] != 2 {
		t.Fatalf("meta restored as %+v", meta)
	}
	for i := range g {
		if g[i] != global[i] || d[i] != gdelta[i] {
			t.Fatalf("vectors restored as %v / %v", g, d)
		}
	}

	// Another model's snapshot, and a vector it never held, are refused.
	if err := snap.Restore(&meta, Vector{"global", make([]float64, 5)}); err == nil || !strings.Contains(err.Error(), "model") {
		t.Fatalf("restore into a 5-parameter model: %v", err)
	}
	if err := snap.Restore(&meta, Vector{"velocity", g}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore of a missing vector: %v", err)
	}
}

// TestSnapshotRoundLabelMustAgree: the bare label is a duplicate of the
// meta's round; a snapshot where the two differ is not restored.
func TestSnapshotRoundLabelMustAgree(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Snapshot(&testMeta{Done: 4}, Vector{"global", []float64{1}})
	w.Wait()
	snap, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap.Round = 5
	if err := snap.Restore(&testMeta{}, Vector{"global", make([]float64, 1)}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("label 5 over meta round 4: %v", err)
	}
}

// TestSnapshotCaptureErrorJoinsLikeAFailedWrite: nothing is written, the
// next join reports the error under the snapshot's own round, and the next
// snapshot is written as if nothing had happened.
func TestSnapshotCaptureErrorJoinsLikeAFailedWrite(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Snapshot(&testMeta{Done: 0}, Vector{"global", []float64{1}})
	if res, ok := w.Snapshot(&badMeta{}); !ok || res.Err != nil || res.Label != 0 {
		t.Fatalf("join of the good epoch: %+v (ok %v)", res, ok)
	}
	res, ok := w.Snapshot(&testMeta{Done: 1}, Vector{"global", []float64{2}})
	if !ok || res.Err == nil || res.Label != 9 || res.Size != 0 {
		t.Fatalf("join of the failed capture: %+v (ok %v), want an error under label 9", res, ok)
	}
	if res, ok := w.Wait(); !ok || res.Err != nil || res.Label != 1 {
		t.Fatalf("snapshot after the failed capture: %+v (ok %v)", res, ok)
	}
	if snap, err := ReadSnapshot(dir); err != nil || snap.Round != 1 {
		t.Fatalf("file after the failed capture: %+v, %v", snap, err)
	}
	// A vector named like a fixed section is a capture error too.
	w.Snapshot(&testMeta{Done: 2}, Vector{"round", []float64{1}})
	if res, ok := w.Wait(); !ok || res.Err == nil {
		t.Fatalf("vector named \"round\": %+v (ok %v)", res, ok)
	}
}

// TestReadSnapshotRejectsForeignChain: a sound file that does not have the
// snapshot layout (what a raw Write leaves) is not a session's.
func TestReadSnapshotRejectsForeignChain(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeSections(t, w, []Section{{Name: "global", Data: make([]byte, 64)}})
	if _, err := ReadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("file without meta and round: %v", err)
	}
	if _, err := ReadSnapshot(t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty directory: %v", err)
	}
}

// TestOpenStartPolicy walks the policy table: snapshot present × resume.
func TestOpenStartPolicy(t *testing.T) {
	populated := func(t *testing.T) string {
		dir := t.TempDir()
		w, err := NewDeltaWriter(dir, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Snapshot(&testMeta{Done: 6}, Vector{"global", []float64{1, 2}})
		if res, _ := w.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		return dir
	}
	var logged []string
	logf := func(format string, args ...interface{}) { logged = append(logged, fmt.Sprintf(format, args...)) }

	t.Run("chain, resume", func(t *testing.T) {
		w, snap, err := Open(populated(t), true, logf)
		if err != nil || snap == nil || snap.Round != 6 || w == nil {
			t.Fatalf("snap %+v, err %v", snap, err)
		}
	})
	t.Run("chain, no resume", func(t *testing.T) {
		dir := populated(t)
		before, _ := os.ReadFile(filepath.Join(dir, fileName))
		if _, _, err := Open(dir, false, logf); err == nil || !strings.Contains(err.Error(), "already holds a snapshot") {
			t.Fatalf("populated directory without resume: %v", err)
		}
		if after, _ := os.ReadFile(filepath.Join(dir, fileName)); !bytes.Equal(after, before) {
			t.Fatal("the refusal touched the snapshot")
		}
	})
	t.Run("empty, resume", func(t *testing.T) {
		// Files that are not the snapshot — an older binary's delta chain
		// among them — do not make one, and are left alone.
		dir := filepath.Join(t.TempDir(), "new")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, old := range []string{"old.ckpt", "delta-00000007.ckpt", "delta-00000008.ckpt"} {
			if err := os.WriteFile(filepath.Join(dir, old), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		logged = nil
		w, snap, err := Open(dir, true, logf)
		if entries, _ := os.ReadDir(dir); err != nil || snap != nil || w == nil || len(entries) != 3 {
			t.Fatalf("snap %+v, err %v", snap, err)
		}
		if len(logged) != 1 || !strings.Contains(logged[0], "starting fresh") {
			t.Fatalf("log lines %q, want the fresh-start line", logged)
		}
	})
	t.Run("empty, no resume", func(t *testing.T) {
		logged = nil
		dir := filepath.Join(t.TempDir(), "not-yet-there")
		w, snap, err := Open(dir, false, logf)
		if err != nil || snap != nil || w == nil || len(logged) != 0 {
			t.Fatalf("snap %+v, err %v, log %q", snap, err, logged)
		}
	})
	t.Run("corrupt chain, resume", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fileName), []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, true, logf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt snapshot: %v", err)
		}
	})
}
