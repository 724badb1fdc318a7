package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenStream is the fixed 40-epoch section stream behind the writer's
// byte-identity golden: a growing "meta", two vectors of which a few bytes
// move per epoch (an odd epoch moves the bytes the epoch before it moved),
// and the bare "round".
type goldenStream struct {
	x              uint64
	meta           []byte
	global, gdelta []byte
	at             [5]int // the bytes this epoch moves: three in global, two in gdelta
}

const (
	goldenBlock  = 256 // the vectors are 64 and 48 blocks, the second plus 100 bytes
	goldenEpochs = 40
)

func newGoldenStream() *goldenStream {
	g := &goldenStream{x: 0x9E3779B97F4A7C15}
	g.global = make([]byte, 64*goldenBlock)
	g.gdelta = make([]byte, 48*goldenBlock+100)
	for i := range g.global {
		g.global[i] = byte(g.rand())
	}
	for i := range g.gdelta {
		g.gdelta[i] = byte(g.rand())
	}
	return g
}

func (g *goldenStream) rand() uint64 {
	g.x ^= g.x << 13
	g.x ^= g.x >> 7
	g.x ^= g.x << 17
	return g.x
}

// next advances the stream one epoch (1-based) and returns its sections;
// the byte slices are reused, as a session's live state is.
func (g *goldenStream) next(epoch int) []Section {
	g.meta = append(g.meta, fmt.Sprintf("round %03d;", epoch)...)
	if epoch%2 == 0 {
		for k := range g.at {
			g.at[k] = int(g.rand() % uint64(len(g.gdelta)))
		}
	}
	for k, at := range g.at {
		if k < 3 {
			g.global[at] ^= byte(epoch)
		} else {
			g.gdelta[at] ^= byte(epoch)
		}
	}
	var round [8]byte
	binary.LittleEndian.PutUint64(round[:], uint64(epoch))
	return []Section{
		{Name: "meta", Data: g.meta},
		{Name: "global", Data: g.global},
		{Name: "gdelta", Data: g.gdelta},
		{Name: "round", Data: round[:]},
	}
}

// dirDigest maps every file in dir to the hex SHA-256 of its bytes.
func dirDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	return out
}

// goldenDigest is the SHA-256 of the snapshot file goldenStream leaves
// after goldenEpochs pipelined writes: the bytes of the last epoch's
// sections in the snapshot frame, none of the live-state mutations made
// while a write was in flight.
const goldenDigest = "86a0ba645da2c25ab4969c12a8dcb9719fadefc985e46f77324e62f4089b73bb"

// TestDeltaWriterGoldenBytes drives the stream through the pipeline the
// way a session does — capture, commit, mutate the live state while the
// write is in flight, join at the next begin — and compares the directory
// with the golden: one file of pinned bytes.
func TestDeltaWriterGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := newGoldenStream()
	var last []Section
	for e := 1; e <= goldenEpochs; e++ {
		secs := g.next(e) // rewrites the slices epoch e-1 was captured from
		res, ok := w.Begin(e)
		if ok != (e > 1) {
			t.Fatalf("epoch %d: Begin joined=%v", e, ok)
		}
		if ok && (res.Err != nil || res.Label != e-1 || res.Size == 0) {
			t.Fatalf("epoch %d: joined %+v, want epoch %d clean", e, res, e-1)
		}
		for _, s := range secs {
			w.Section(s.Name).Write(s.Data)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if e == goldenEpochs {
			last = cloneSections(secs)
		}
	}
	g.next(goldenEpochs + 1) // mutate while the last write is in flight
	res, ok := w.Wait()
	if !ok || res.Err != nil || res.Label != goldenEpochs {
		t.Fatalf("final join: %+v ok=%v", res, ok)
	}
	if _, ok := w.Wait(); ok {
		t.Fatal("second Wait found a write in flight")
	}
	sectionsEqual(t, readSections(t, dir), last)
	if got := dirDigest(t, dir); !reflect.DeepEqual(got, map[string]string{fileName: goldenDigest}) {
		t.Fatalf("directory differs from the golden:\n got %v\nwant %s %s", got, fileName, goldenDigest)
	}
}

func cloneSections(secs []Section) []Section {
	out := make([]Section, len(secs))
	for i, s := range secs {
		out[i] = Section{s.Name, append([]byte(nil), s.Data...)}
	}
	return out
}

// TestDeltaWriterF64sMatchesAppend: the in-place vector capture is the
// fixed-width section AppendF64s builds.
func TestDeltaWriterF64sMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, 1.5, -2.25, 1e300, -1e-300, 7}
	w.Begin(0)
	w.F64s("v", vals)
	w.Section("tail").Write([]byte("x"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	vals[0] = 99 // the capture is a copy
	if res, _ := w.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	vals[0] = 0
	sectionsEqual(t, readSections(t, dir), []Section{{Name: "v", Data: AppendF64s(nil, vals)}, {Name: "tail", Data: []byte("x")}})
}

// TestDeltaWriterSweepsTempFiles: a crash mid-write leaves a temp file that
// no reader looks at; opening a writer removes it and leaves the snapshot
// beside it, and other files, alone.
func TestDeltaWriterSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	secs := []Section{{Name: "v", Data: bytes.Repeat([]byte{3}, 64*8)}}
	writeSections(t, w, secs)
	stale := filepath.Join(dir, fileName+".tmp123456")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "session.ckpt.tmp1") // not the writer's to delete
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeltaWriter(dir, DeltaOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived the open (stat err %v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("open removed a file outside %s.tmp*: %v", fileName, err)
	}
	sectionsEqual(t, readSections(t, dir), secs)
}

// TestDeltaWriterErrorReportedAtJoinAndRetried: a failed write surfaces at
// the join under its own label, leaves the previous file in place, and the
// next write succeeds. The directory is moved aside rather than chmod'ed:
// root ignores mode bits.
func TestDeltaWriterErrorReportedAtJoinAndRetried(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vec := bytes.Repeat([]byte{5}, 64*8)
	writeSections(t, w, []Section{{Name: "v", Data: vec}})
	vec[0] ^= 1
	before := []Section{{Name: "v", Data: append([]byte(nil), vec...)}}
	writeSections(t, w, before)

	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	vec[64] ^= 1
	w.Begin(7)
	w.Section("v").Write(vec)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	res, ok := w.Wait()
	if !ok || res.Err == nil {
		t.Fatalf("write into a missing directory joined clean: %+v", res)
	}
	if res.Label != 7 || res.Size != 0 {
		t.Fatalf("failed write reported as %+v, want label 7, size 0", res)
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	sectionsEqual(t, readSections(t, dir), before)

	vec[128] ^= 1
	writeSections(t, w, []Section{{Name: "v", Data: vec}})
	sectionsEqual(t, readSections(t, dir), []Section{{Name: "v", Data: vec}})
}

// TestDeltaWriterCommitRejectsBadSections: capture errors come back from
// Commit, before anything is in flight.
func TestDeltaWriterCommitRejectsBadSections(t *testing.T) {
	w, err := NewDeltaWriter(t.TempDir(), DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{""}, {"a", "b", "a"}, {strings.Repeat("n", maxSectionName+1)}} {
		w.Begin(0)
		for _, n := range names {
			w.Section(n).Write([]byte{1})
		}
		if err := w.Commit(); err == nil {
			t.Fatalf("sections %q committed", names)
		}
		if _, ok := w.Wait(); ok {
			t.Fatalf("sections %q left a write in flight", names)
		}
	}
	if _, _, err := w.Write([]Section{{Name: "ok", Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCrashStages builds the two directory states a crash can leave
// around one write of snapshot N+1 over snapshot N, and resumes each: (a)
// snapshot N beside a complete temp file holding N+1, the crash before the
// rename — N restores bit for bit and the temp is swept; (b) N+1 renamed
// in, the crash after — N+1 restores bit for bit.
func TestOpenCrashStages(t *testing.T) {
	vec := func(round int) []float64 {
		v := make([]float64, 300)
		for i := range v {
			v[i] = float64(round) + float64(i)*1e-3 + 1e-17*float64(i*i)
		}
		return v
	}
	image := func(round int) []byte { // the file a write of round leaves
		dir := t.TempDir()
		w, err := NewDeltaWriter(dir, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		w.Snapshot(&testMeta{Done: round, LastSel: map[int]int{1: round}}, Vector{"global", vec(round)})
		if res, _ := w.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, fileName))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	const n = 4
	for _, tc := range []struct {
		stage string
		files map[string][]byte
		want  int
	}{
		{"before the rename", map[string][]byte{fileName: image(n), fileName + ".tmp0815": image(n + 1)}, n},
		{"after the rename", map[string][]byte{fileName: image(n + 1)}, n + 1},
	} {
		dir := t.TempDir()
		for name, raw := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, snap, err := Open(dir, true, t.Logf)
		if err != nil || snap == nil || w == nil {
			t.Fatalf("%s: open %v (snapshot %v)", tc.stage, err, snap)
		}
		var meta testMeta
		got := make([]float64, 300)
		if err := snap.Restore(&meta, Vector{"global", got}); err != nil {
			t.Fatalf("%s: %v", tc.stage, err)
		}
		if meta.Done != tc.want || meta.LastSel[1] != tc.want {
			t.Fatalf("%s: restored %+v, want round %d", tc.stage, meta, tc.want)
		}
		for i, x := range vec(tc.want) {
			if math.Float64bits(got[i]) != math.Float64bits(x) {
				t.Fatalf("%s: global[%d] = %v, want %v bit for bit", tc.stage, i, got[i], x)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != fileName {
			t.Fatalf("%s: directory after open holds %v, want only %s", tc.stage, entries, fileName)
		}
	}
}
