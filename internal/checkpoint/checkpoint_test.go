package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// payload is a representative snapshot body: vectors, a sparse id map
// and scalars, mirroring what the FL server persists.
type payload struct {
	Round   int
	Global  []float64
	LastSel map[int]int
	Note    string
}

func samplePayload() payload {
	return payload{
		Round:   7,
		Global:  []float64{0.5, -1.25, 3.75, 0, 1e-9},
		LastSel: map[int]int{0: 6, 2: 7, 9: 3},
		Note:    "after round 7",
	}
}

// encodeToBytes is the file Save writes for v.
func encodeToBytes(t testing.TB, v interface{}) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v.ckpt")
	if err := Save(path, v); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decode reads a file Save wrote from r into v under a payload cap.
func decode(r io.Reader, v interface{}, maxPayload int64) error {
	secs, err := parse(r, maxPayload)
	if err != nil {
		return err
	}
	return decodeMeta(secs, v)
}

// load reads the file Save wrote at path into v.
func load(path string, v interface{}) error {
	secs, _, err := read(path)
	if err != nil {
		return err
	}
	return decodeMeta(secs, v)
}

// withCRC recomputes the header's CRC over a patched payload.
func withCRC(raw []byte) []byte {
	binary.LittleEndian.PutUint32(raw[20:24], crc32.Checksum(raw[headerLen:], castagnoli))
	return raw
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ckpt")
	want := samplePayload()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := load(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no file at the saved path: %v", err)
	}
}

// TestSaveReplacesAtomically: overwriting an existing snapshot leaves no
// temp debris and the new content wins; pre-existing garbage temp files
// (a simulated crash mid-save) do not disturb a later Save/Load.
func TestSaveReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ckpt")
	// Crash debris from a hypothetical earlier attempt.
	if err := os.WriteFile(path+".tmp-crashed", []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	first := samplePayload()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := samplePayload()
	second.Round = 8
	second.Global[0] = 99
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := load(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, second) {
		t.Fatalf("overwrite did not take: got round %d", got.Round)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "session.ckpt" && !strings.Contains(e.Name(), "crashed") {
			t.Errorf("unexpected debris after Save: %s", e.Name())
		}
	}
}

// TestDecodeTruncated: every strict prefix of a valid file must fail with
// ErrCorrupt, never panic or succeed.
func TestDecodeTruncated(t *testing.T) {
	raw := encodeToBytes(t, samplePayload())
	for cut := 0; cut < len(raw); cut++ {
		var got payload
		err := decode(bytes.NewReader(raw[:cut]), &got, DefaultMaxPayload)
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestDecodeBitFlips: flipping any single byte must be detected (magic,
// version, length, CRC or payload).
func TestDecodeBitFlips(t *testing.T) {
	raw := encodeToBytes(t, samplePayload())
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		var got payload
		if err := decode(bytes.NewReader(mut), &got, DefaultMaxPayload); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeLengthCap(t *testing.T) {
	raw := encodeToBytes(t, samplePayload())
	// Claim an absurd payload length; the reader must refuse before
	// attempting to materialise it.
	binary.LittleEndian.PutUint64(raw[12:20], 1<<50)
	var got payload
	err := decode(bytes.NewReader(raw), &got, DefaultMaxPayload)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized declared payload not rejected: %v", err)
	}
	// And an explicit tighter cap rejects otherwise-valid files.
	raw2 := encodeToBytes(t, samplePayload())
	if err := decode(bytes.NewReader(raw2), &got, 4); err == nil {
		t.Fatal("payload above explicit cap accepted")
	}
}

func TestDecodeWrongMagicAndVersion(t *testing.T) {
	raw := encodeToBytes(t, samplePayload())
	bad := append([]byte(nil), raw...)
	copy(bad[:8], []byte("NOTACKPT"))
	var got payload
	if err := decode(bytes.NewReader(bad), &got, DefaultMaxPayload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign magic accepted: %v", err)
	}
	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[8:12], Version+1)
	if err := decode(bytes.NewReader(bad), &got, DefaultMaxPayload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var got payload
	err := load(filepath.Join(t.TempDir(), "absent.ckpt"), &got)
	if err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error %v is not ErrNotExist", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("missing file misreported as corruption")
	}
}

// writeSections is a test helper: one synchronous Write, error fatal.
func writeSections(t *testing.T, w *DeltaWriter, secs []Section) int64 {
	t.Helper()
	size, _, err := w.Write(secs)
	if err != nil {
		t.Fatalf("snapshot write: %v", err)
	}
	return size
}

// readSections reads the raw sections of the snapshot file in dir.
func readSections(t *testing.T, dir string) []Section {
	t.Helper()
	_, secs, err := NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

func sectionsEqual(t *testing.T, got, want []Section) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("section %d name %q, want %q", i, got[i].Name, want[i].Name)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("section %q data mismatch (%d vs %d bytes)", want[i].Name, len(got[i].Data), len(want[i].Data))
		}
	}
}

// TestDeltaRoundTrip: each write replaces the file whole, with its size on
// disk reported, and reads back exactly.
func TestDeltaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vec := make([]byte, 64*40)
	rng.Read(vec)
	secs := []Section{{Name: "meta", Data: []byte(`{"version":1}`)}, {Name: "global", Data: vec}}
	size := writeSections(t, w, secs)
	if fi, err := os.Stat(filepath.Join(dir, fileName)); err != nil || fi.Size() != size {
		t.Fatalf("file %v (err %v), write reported %d bytes", fi, err, size)
	}
	sectionsEqual(t, readSections(t, dir), secs)

	vec2 := append([]byte(nil), vec...)
	vec2[10] ^= 0xff
	secs2 := []Section{{Name: "meta", Data: []byte(`{"version":2}`)}, {Name: "global", Data: vec2}}
	writeSections(t, w, secs2)
	sectionsEqual(t, readSections(t, dir), secs2)
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d files after two writes, want the one snapshot", len(entries))
	}
}

func TestDeltaSectionGrowthAndShrink(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{7}, 100)
	writeSections(t, w, []Section{{Name: "s", Data: a}})
	grown := append(append([]byte(nil), a...), bytes.Repeat([]byte{9}, 60)...)
	writeSections(t, w, []Section{{Name: "s", Data: grown}})
	sectionsEqual(t, readSections(t, dir), []Section{{Name: "s", Data: grown}})

	shrunk := grown[:40]
	writeSections(t, w, []Section{{Name: "s", Data: shrunk}, {Name: "empty", Data: nil}})
	sectionsEqual(t, readSections(t, dir), []Section{{Name: "s", Data: shrunk}, {Name: "empty"}})
}

// TestDeltaAuditDetectsBitFlip: a flip anywhere in the file fails the frame
// CRC, and a flip in the section table under a recomputed CRC fails the
// table's own checks — both as ErrCorrupt, through ReadSnapshot too.
func TestDeltaAuditDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Snapshot(&testMeta{Done: 3}, Vector{"global", []float64{1, 2, 3}})
	if res, _ := w.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	path := filepath.Join(dir, fileName)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		patch func([]byte) []byte
	}{
		{"payload flip", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }},
		{"section count under a fresh CRC", func(b []byte) []byte { b[headerLen] ^= 0x02; return withCRC(b) }},
		{"name length under a fresh CRC", func(b []byte) []byte { b[headerLen+4] ^= 0x10; return withCRC(b) }},
	} {
		if err := os.WriteFile(path, tc.patch(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := NewDeltaReader(dir, 0).ReadLatest(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: read %v", tc.name, err)
		}
		if _, err := ReadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadSnapshot %v", tc.name, err)
		}
	}
}

// TestF64SectionRoundTrip: AppendF64s is the layout Restore reads, and a
// vector section that is not whole float64s is corrupt.
func TestF64SectionRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	b := AppendF64s([]byte("prefix"), vals)
	if string(b[:6]) != "prefix" || len(b) != 6+8*len(vals) {
		t.Fatalf("AppendF64s returned %d bytes", len(b))
	}
	label := binary.LittleEndian.AppendUint64(nil, 7)
	meta := encodeToBytes(t, &testMeta{Done: 7})
	metaSecs, err := parse(bytes.NewReader(meta), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Round: 7, sections: []Section{metaSecs[0], {"v", b[6:]}, {"odd", b[6 : len(b)-1]}, {"round", label}}}
	got := make([]float64, len(vals))
	if err := snap.Restore(&testMeta{}, Vector{"v", got}); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("f64 round trip %v != %v", got[i], vals[i])
		}
	}
	if err := snap.Restore(&testMeta{}, Vector{"odd", got}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated f64 section: %v", err)
	}
}
