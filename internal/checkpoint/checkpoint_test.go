package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
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

func encodeToBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ckpt")
	want := samplePayload()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := Load(path, &got); err != nil {
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
	if err := Load(path, &got); err != nil {
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

// TestDecodeTruncated: every strict prefix of a valid snapshot must fail
// with ErrCorrupt, never panic or succeed.
func TestDecodeTruncated(t *testing.T) {
	raw := encodeToBytes(t, samplePayload())
	for cut := 0; cut < len(raw); cut++ {
		var got payload
		err := Decode(bytes.NewReader(raw[:cut]), &got)
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
		if err := Decode(bytes.NewReader(mut), &got); err == nil {
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
	err := Decode(bytes.NewReader(raw), &got)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized declared payload not rejected: %v", err)
	}
	// And an explicit tighter cap rejects otherwise-valid snapshots.
	raw2 := encodeToBytes(t, samplePayload())
	if err := DecodeLimited(bytes.NewReader(raw2), &got, 4); err == nil {
		t.Fatal("payload above explicit cap accepted")
	}
}

func TestDecodeWrongMagicAndVersion(t *testing.T) {
	raw := encodeToBytes(t, samplePayload())
	bad := append([]byte(nil), raw...)
	copy(bad[:8], []byte("NOTACKPT"))
	var got payload
	if err := Decode(bytes.NewReader(bad), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign magic accepted: %v", err)
	}
	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[8:12], Version+1)
	if err := Decode(bytes.NewReader(bad), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var got payload
	err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), &got)
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
