package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenStream is the fixed 40-epoch section stream behind the writer's
// byte-identity golden: a growing "meta", two vectors of which a few
// 256-byte chunks move per epoch (the second ends in a partial chunk), and
// the bare "round". An odd epoch moves the chunks the epoch before it
// moved, which leaves that epoch unreferenced, so GC has work between
// rebases too. With RebaseEvery 16 it crosses two rebases (epochs 17 and
// 33).
type goldenStream struct {
	x              uint64
	meta           []byte
	global, gdelta []byte
	at             [5]int // the bytes this epoch moves: three in global, two in gdelta
}

const (
	goldenChunk  = 256
	goldenEpochs = 40
)

func newGoldenStream() *goldenStream {
	g := &goldenStream{x: 0x9E3779B97F4A7C15}
	g.global = make([]byte, 64*goldenChunk)
	g.gdelta = make([]byte, 48*goldenChunk+100)
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

// goldenSurvivors is what the parent commit's synchronous Write left on
// disk for goldenStream at ChunkSize 256 and the default rebase cadence:
// the surviving file set and each file's SHA-256. The pipelined writer
// must leave exactly this — same bytes, same GC.
var goldenSurvivors = map[string]string{
	"delta-00000033.ckpt": "4e20b6336e7c8fb7eca3d52b0d2792092dbade6983e1bef61fe1d3e2ba00e8b8",
	"delta-00000035.ckpt": "e3349d87b0d6db28719bc8001856b19d1daea21d39f908a752c3885c5676f559",
	"delta-00000037.ckpt": "910488ff91c4afd336d626b0d682b9c31f8fb4a64e3c8ddc8d3ec04a655d9f31",
	"delta-00000039.ckpt": "d34c674bb2f2b62f9d1a6c5fb7fdbb5a1190624a96b1be3cdb808ccace79abd1",
	"delta-00000040.ckpt": "cb8e16e4d51c476c2cd7f6de69c78d2486a590554efdd99714cdc918abfc7962",
}

// TestDeltaWriterGoldenBytes drives the stream through the pipeline the
// way a session does — capture, commit, mutate the live state while the
// epoch is in flight, join at the next begin — and compares the directory
// with the golden.
func TestDeltaWriterGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: goldenChunk})
	if err != nil {
		t.Fatal(err)
	}
	g := newGoldenStream()
	for e := 1; e <= goldenEpochs; e++ {
		secs := g.next(e) // rewrites the slices epoch e-1 was captured from
		res, ok := w.Begin(e)
		if ok != (e > 1) {
			t.Fatalf("epoch %d: Begin joined=%v", e, ok)
		}
		if ok && (res.Err != nil || res.Label != e-1 || res.Epoch != uint64(e-1) || res.Size == 0) {
			t.Fatalf("epoch %d: joined %+v, want epoch %d clean", e, res, e-1)
		}
		for _, s := range secs {
			w.Section(s.Name).Write(s.Data)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	res, ok := w.Wait()
	if !ok || res.Err != nil || res.Epoch != goldenEpochs {
		t.Fatalf("final join: %+v ok=%v", res, ok)
	}
	if _, ok := w.Wait(); ok {
		t.Fatal("second Wait found an epoch in flight")
	}
	if got := dirDigest(t, dir); !reflect.DeepEqual(got, goldenSurvivors) {
		t.Fatalf("directory differs from the parent commit's:\n got %v\nwant %v", got, goldenSurvivors)
	}
	if _, err := AuditDelta(dir); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaWriterF64sMatchesAppend: the in-place vector capture is the
// fixed-width section AppendF64s builds.
func TestDeltaWriterF64sMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64})
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
	_, got, err := NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sectionsEqual(t, got, []Section{{Name: "v", Data: AppendF64s(nil, vals)}, {Name: "tail", Data: []byte("x")}})
}

// TestDeltaWriterSweepsTempFiles: a crash mid-write leaves a temp file
// that no reader looks at and GC never lists; opening a writer removes it
// and the chain beside it still audits clean.
func TestDeltaWriterSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	vec := bytes.Repeat([]byte{3}, 64*8)
	for i := 0; i < 3; i++ {
		vec[i*64] ^= 1
		writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	}
	stale := filepath.Join(dir, deltaFileName(4)+".tmp123456")
	if err := os.WriteFile(stale, []byte("half an epoch"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "session.ckpt.tmp1") // not the delta writer's to delete
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived the open (stat err %v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("open removed a file outside delta-*.ckpt.tmp*: %v", err)
	}
	if w2.Epoch() != 3 {
		t.Fatalf("reopened at epoch %d, want 3", w2.Epoch())
	}
	if _, err := AuditDelta(dir); err != nil {
		t.Fatalf("chain next to the swept temp file: %v", err)
	}
}

// TestDeltaWriterErrorReportedAtJoinAndRetried: a failed write surfaces at
// the join under the epoch's own label and number, leaves the chain state
// alone, and the next epoch reuses the number and still resolves against
// the epochs before the failure. The directory is moved aside rather than
// chmod'ed: root ignores mode bits.
func TestDeltaWriterErrorReportedAtJoinAndRetried(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chain")
	w, err := NewDeltaWriter(dir, DeltaOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	vec := bytes.Repeat([]byte{5}, 64*8)
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	vec[0] ^= 1
	writeEpoch(t, w, []Section{{Name: "v", Data: vec}})

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
	if res.Label != 7 || res.Epoch != 3 || res.Size != 0 {
		t.Fatalf("failed epoch reported as %+v, want label 7 epoch 3", res)
	}
	if w.Epoch() != 2 {
		t.Fatalf("failed write advanced the chain to epoch %d", w.Epoch())
	}
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}

	vec[128] ^= 1
	epoch, _ := writeEpoch(t, w, []Section{{Name: "v", Data: vec}})
	if epoch != 3 {
		t.Fatalf("retry wrote epoch %d, want 3 again", epoch)
	}
	audit, err := AuditDelta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Refs == 0 {
		t.Fatal("the retried epoch references nothing: the failure reset the chunk table")
	}
	_, got, err := NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	sectionsEqual(t, got, []Section{{Name: "v", Data: vec}})
}

// TestDeltaWriterCommitRejectsBadSections: capture errors come back from
// Commit, before anything is in flight.
func TestDeltaWriterCommitRejectsBadSections(t *testing.T) {
	w, err := NewDeltaWriter(t.TempDir(), DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{""}, {"a", "b", "a"}} {
		w.Begin(0)
		for _, n := range names {
			w.Section(n).Write([]byte{1})
		}
		if err := w.Commit(); err == nil {
			t.Fatalf("sections %q committed", names)
		}
		if _, ok := w.Wait(); ok {
			t.Fatalf("sections %q left an epoch in flight", names)
		}
	}
	if _, _, err := w.Write([]Section{{Name: "ok", Data: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
}
