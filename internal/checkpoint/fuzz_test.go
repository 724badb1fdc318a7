package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fuzzCap is the payload cap the fuzzer parses under: tight, so the fuzzer
// spends its budget on structure, not on legitimately large allocations.
const fuzzCap = 1 << 16

// fuzzSeed is one seed input; hostile seeds must fail closed.
type fuzzSeed struct {
	name    string
	data    []byte
	hostile bool
}

// fuzzSeeds are a snapshot file, that file truncated at every section
// boundary, one bit flipped, a section count of 2¹², a zero-length name and
// a payload length over the cap — plus the one-section file Save writes, and
// it truncated at its boundaries.
func fuzzSeeds(tb testing.TB) []fuzzSeed {
	tb.Helper()
	dir := tb.TempDir()
	w, err := NewDeltaWriter(dir, DeltaOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	w.Snapshot(&testMeta{Done: 3, Acc: 0.5, LastSel: map[int]int{1: 2}},
		Vector{"global", []float64{1, 2.5, -3}}, Vector{"gdelta", []float64{0, 1e-9}})
	if res, _ := w.Wait(); res.Err != nil {
		tb.Fatal(res.Err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil {
		tb.Fatal(err)
	}
	saved := encodeToBytes(tb, samplePayload())

	seeds := []fuzzSeed{{"snapshot", snap, false}, {"saved", saved, false}}
	for _, file := range []struct {
		name string
		raw  []byte
	}{{"snapshot", snap}, {"saved", saved}} {
		for _, cut := range boundaries(file.raw) {
			seeds = append(seeds, fuzzSeed{file.name + " truncated", file.raw[:cut], true})
		}
	}
	patch := func(name string, f func(b []byte)) {
		b := append([]byte(nil), snap...)
		f(b)
		seeds = append(seeds, fuzzSeed{name, b, true})
	}
	patch("bit flip", func(b []byte) { b[len(b)/2] ^= 0x08 })
	patch("2^12 sections", func(b []byte) { binary.LittleEndian.PutUint32(b[headerLen:], maxSections); withCRC(b) })
	patch("zero-length name", func(b []byte) { binary.LittleEndian.PutUint16(b[headerLen+4:], 0); withCRC(b) })
	patch("payload over the cap", func(b []byte) { binary.LittleEndian.PutUint64(b[12:20], fuzzCap+1) })
	return seeds
}

// boundaries lists the offsets where a valid file's header, section count
// and each section's name length, name, data length and data end, the last
// (the whole file) left out, with 0 first.
func boundaries(raw []byte) []int {
	cuts := []int{0, headerLen, headerLen + 4}
	for off := headerLen + 4; off < len(raw); {
		nl := int(binary.LittleEndian.Uint16(raw[off:]))
		size := int(binary.LittleEndian.Uint64(raw[off+2+nl:]))
		cuts = append(cuts, off+2, off+2+nl, off+2+nl+8)
		off += 2 + nl + 8 + size
		if off < len(raw) {
			cuts = append(cuts, off)
		}
	}
	return cuts
}

// FuzzSnapshotDecode feeds arbitrary bytes into the package's one parser:
// every rejection must wrap ErrCorrupt (never a panic), an accepted file must
// re-frame to the bytes it was read from, and the snapshot layer on top of
// it must fail closed too. This is the surface a server hits when it resumes
// from a file damaged by a crash, a partial disk write or bit rot.
func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := parse(bytes.NewReader(data), fuzzCap)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var fr frame
		fr.reset()
		for _, s := range secs {
			fr.section(s.Name).Write(s.Data)
		}
		if err := fr.finish(); err != nil {
			t.Fatalf("accepted sections do not re-frame: %v", err)
		}
		fr.seal()
		if !bytes.HasPrefix(data, fr.buf) {
			t.Fatal("accepted file re-frames to other bytes")
		}
		snap := &Snapshot{sections: secs}
		snap.VectorLen("global")
		snap.Restore(&testMeta{}, Vector{"global", make([]float64, 3)})
	})
}

// FuzzCheckpointDecode and FuzzDeltaDecode are the names the framed-file and
// delta-chain fuzzers had before the two formats became one; they run
// FuzzSnapshotDecode so that test IDs recorded under them keep running.
func FuzzCheckpointDecode(f *testing.F) { FuzzSnapshotDecode(f) }

func FuzzDeltaDecode(f *testing.F) { FuzzSnapshotDecode(f) }

// TestSnapshotDecodeHostileSeeds: each hostile seed fails with ErrCorrupt
// before the parser allocates anything its lengths would size — what it
// allocates is bounded by the bytes it was given.
func TestSnapshotDecodeHostileSeeds(t *testing.T) {
	seeds := fuzzSeeds(t)
	if len(seeds) < 28 {
		t.Fatalf("%d seeds", len(seeds))
	}
	var before, after runtime.MemStats
	for _, s := range seeds {
		runtime.ReadMemStats(&before)
		_, err := parse(bytes.NewReader(s.data), fuzzCap)
		runtime.ReadMemStats(&after)
		if !s.hostile {
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s (%d bytes): %v, want ErrCorrupt", s.name, len(s.data), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(2*len(s.data)+4096) {
			t.Fatalf("%s: parsing %d bytes allocated %d", s.name, len(s.data), n)
		}
	}
}
