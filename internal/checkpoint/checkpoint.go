// Package checkpoint is the durable-state layer of long-lived training
// sessions. A session's state lives in a chain of delta epochs (delta.go)
// whose every epoch has the one snapshot layout this file owns — written by
// DeltaWriter.Snapshot, read by Snapshot.Restore — and a directory is
// started or resumed through the one policy in Open.
//
// Beside it the package keeps a framed single-file gob (Encode/Decode,
// Save/Load) for tools: a fixed header (magic, format version, payload
// length, CRC-32C of the payload) so that a reader can reject truncated,
// bit-flipped or foreign files before handing bytes to the decoder, and a
// length cap that keeps a corrupt length prefix from forcing a huge
// allocation. Both share one crash discipline (atomicWrite): a temp file in
// the destination directory, fsynced, renamed over the destination, the
// directory fsynced. A process killed at any point leaves either the
// previous complete file or the new complete file — never a half-written
// one (a stale temp file at worst, which no reader looks at).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a checkpoint file. Changing the on-disk layout bumps
// Version, not the magic.
var magic = [8]byte{'A', 'D', 'F', 'L', 'C', 'K', 'P', 'T'}

// Version is the current snapshot format version.
const Version = 1

// headerLen is magic(8) + version(4) + payload length(8) + crc(4).
const headerLen = 24

// DefaultMaxPayload bounds the payload length a reader will believe.
// Snapshots here are model vectors plus bookkeeping — far below 1 GiB —
// so anything larger is treated as corruption, not data.
const DefaultMaxPayload = 1 << 30

// ErrCorrupt marks a snapshot that failed structural verification:
// wrong magic, impossible length, truncated payload or CRC mismatch.
// Callers distinguish it from I/O errors to decide between "refuse to
// resume" and "retry the read".
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// castagnoli is the CRC-32C table (iSCSI polynomial), hardware
// accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes one framed snapshot of v to w.
func Encode(w io.Writer, v interface{}) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(payload.Bytes(), castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write payload: %w", err)
	}
	return nil
}

// Decode reads one framed snapshot from r into v, verifying magic,
// version, length and CRC before gob sees a single payload byte. It
// uses DefaultMaxPayload as the length cap.
func Decode(r io.Reader, v interface{}) error {
	return DecodeLimited(r, v, DefaultMaxPayload)
}

// DecodeLimited is Decode with an explicit payload length cap. Corrupt
// or truncated input yields an error wrapping ErrCorrupt — never a
// panic and never an allocation driven by an unverified length prefix
// beyond maxPayload.
func DecodeLimited(r io.Reader, v interface{}, maxPayload int64) error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(hdr[8:12]); ver != Version {
		return fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, ver)
	}
	payload, err := readPayload(r, hdr, maxPayload)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		// The CRC passed, so the bytes are what the writer produced; a gob
		// failure here means a writer/reader type mismatch, still corrupt
		// from the caller's point of view.
		return fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	return nil
}

// readPayload reads the payload a verified header declares (length at
// hdr[12:20], CRC-32C at hdr[20:24]) and checks both, for framed files and
// delta epochs alike. It reads through a LimitReader in moderate chunks so
// a declared length larger than the actual data fails with a short read,
// not a single n-sized up-front allocation.
func readPayload(r io.Reader, hdr [headerLen]byte, maxPayload int64) ([]byte, error) {
	n := binary.LittleEndian.Uint64(hdr[12:20])
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if n > uint64(maxPayload) {
		return nil, fmt.Errorf("%w: declared payload %d exceeds cap %d", ErrCorrupt, n, maxPayload)
	}
	payload := make([]byte, 0, min(int64(n), 1<<20))
	lr := io.LimitReader(r, int64(n))
	buf := make([]byte, 64<<10)
	for {
		k, err := lr.Read(buf)
		payload = append(payload, buf[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
		}
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(payload), n)
	}
	want := binary.LittleEndian.Uint32(hdr[20:24])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Save atomically writes a snapshot of v to path: temp file in the same
// directory, fsync, rename, directory fsync. An existing snapshot at
// path is replaced only once the new one is fully durable.
func Save(path string, v interface{}) error {
	_, err := atomicWrite(path, func(w io.Writer) error { return Encode(w, v) })
	return err
}

// atomicWrite runs write against a temp file in path's directory, then
// fsyncs, renames over path and fsyncs the directory — the shared crash
// discipline for framed files and delta epochs alike. It reports the
// bytes written.
func atomicWrite(path string, write func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("checkpoint: fsync: %w", err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("checkpoint: close: %w", err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("checkpoint: rename: %w", err)
	}
	// Make the rename itself durable. Some filesystems reject Sync on a
	// directory handle; a crash then risks losing only the rename, never
	// producing a torn file, so that error is not fatal.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return cw.n, nil
}

// countingWriter tracks the bytes atomicWrite put through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Load reads the snapshot at path into v, capping the payload length it
// will believe at DefaultMaxPayload (a corrupt length field must never
// drive the allocation).
func Load(path string, v interface{}) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Decode(f, v)
}

// The snapshot layout, in section order: "meta", a gob of the engine's own
// plain struct; one fixed-width f64 section per named vector, so positional
// chunking dedups the parameters a round did not move (gob's varint floats
// would shift every byte after the first changed value); "round", the bare
// little-endian u64 duplicate of Meta.Round that an offline auditor follows
// without knowing any engine's types. Meta is gob rather than JSON because
// a round's TestAcc is NaN when it was not evaluated.
const (
	secMeta  = "meta"
	secRound = "round"
)

// Meta is an engine's snapshot struct. Round is the completed round or
// model version it was taken at: the epoch's label.
type Meta interface{ Round() int }

// Vector is one named model-sized vector of a snapshot.
type Vector struct {
	Name string
	Vals []float64
}

// Snapshot joins the epoch in flight, reporting its outcome like Wait,
// captures the next one in the snapshot layout and leaves it writing behind
// the caller's next round. Everything that reads the caller's state happens
// before it returns; the bytes are the writer's after. A capture that fails
// (gob refusing meta, a vector named like a fixed section) starts no write
// and is reported at the next join as that epoch's Err, like a failed write.
func (w *DeltaWriter) Snapshot(meta Meta, vecs ...Vector) (DeltaResult, bool) {
	round := meta.Round()
	joined, ok := w.Begin(round)
	err := gob.NewEncoder(w.Section(secMeta)).Encode(meta)
	for _, v := range vecs {
		w.F64s(v.Name, v.Vals)
	}
	w.Section(secRound)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(round))
	if err == nil {
		err = w.Commit()
	}
	if err != nil {
		w.abandon(fmt.Errorf("checkpoint: capture: %w", err))
	}
	return joined, ok
}

// Snapshot is the newest epoch of a chain, read back and hash-verified.
type Snapshot struct {
	Epoch uint64
	// Round is the epoch's bare label.
	Round    int
	sections []Section
}

// ReadSnapshot reconstructs the newest epoch of the chain in dir and checks
// that it has the snapshot layout's fixed sections. With no epoch in dir the
// error wraps os.ErrNotExist.
func ReadSnapshot(dir string) (*Snapshot, error) {
	epoch, sections, err := NewDeltaReader(dir, 0).ReadLatest()
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Epoch: epoch, sections: sections}
	label, _ := s.section(secRound)
	if _, ok := s.section(secMeta); !ok || len(label) != 8 {
		return nil, fmt.Errorf("%w: epoch %d is not a session snapshot (meta section present: %v, round label %d bytes, want 8)",
			ErrCorrupt, epoch, ok, len(label))
	}
	s.Round = int(binary.LittleEndian.Uint64(label))
	return s, nil
}

func (s *Snapshot) section(name string) ([]byte, bool) {
	for _, sec := range s.sections {
		if sec.Name == name {
			return sec.Data, true
		}
	}
	return nil, false
}

// VectorLen is the number of values the named vector holds, -1 when the
// snapshot has no such section.
func (s *Snapshot) VectorLen(name string) int {
	b, ok := s.section(name)
	if !ok || len(b)%8 != 0 {
		return -1
	}
	return len(b) / 8
}

// Restore is the inverse of DeltaWriter.Snapshot: it decodes the meta
// section into meta, which must agree with the round label, and fills each
// of vecs in place from the section of its name. A vector of another length
// than the caller's is a snapshot of another model and is refused.
func (s *Snapshot) Restore(meta Meta, vecs ...Vector) error {
	mb, _ := s.section(secMeta)
	if err := gob.NewDecoder(bytes.NewReader(mb)).Decode(meta); err != nil {
		return fmt.Errorf("%w: snapshot meta: %v", ErrCorrupt, err)
	}
	if meta.Round() != s.Round {
		return fmt.Errorf("%w: round label %d disagrees with meta round %d", ErrCorrupt, s.Round, meta.Round())
	}
	for _, v := range vecs {
		b, ok := s.section(v.Name)
		if !ok {
			return fmt.Errorf("%w: snapshot has no %q section", ErrCorrupt, v.Name)
		}
		vals, err := F64sFromBytes(b)
		if err != nil {
			return fmt.Errorf("snapshot %q: %w", v.Name, err)
		}
		if len(vals) != len(v.Vals) {
			return fmt.Errorf("snapshot %q holds %d values, this session's model has %d (model or seed changed?)",
				v.Name, len(vals), len(v.Vals))
		}
		copy(v.Vals, vals)
	}
	return nil
}

// Open applies the one start policy to a session's checkpoint directory and
// returns its writer, with the snapshot to restore when the session resumes:
//
//	chain, resume:    the latest snapshot; the writer continues the chain
//	chain, no resume: refused — a fresh session appending to another's chain
//	                  would, after a crash before its first join, resume the
//	                  old model under the new session's event log
//	empty, resume:    a fresh start, logged, so a supervisor can always
//	                  pass resume
//	empty, no resume: a fresh start
//
// Only delta epochs make a chain: a directory holding some other file, a
// checkpoint of an older binary included, is empty. The chain is read
// before the writer opens, whose first epoch is then a full rebase after
// the latest one.
func Open(dir string, resume bool, opts DeltaOptions, logf func(string, ...interface{})) (*DeltaWriter, *Snapshot, error) {
	latest, ok, err := LatestDeltaEpoch(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %s: %w", dir, err)
	}
	var snap *Snapshot
	switch {
	case ok && !resume:
		return nil, nil, fmt.Errorf("checkpoint: %s already holds a chain (epoch %d); resume it or use a fresh directory", dir, latest)
	case ok:
		if snap, err = ReadSnapshot(dir); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: resume from %s: %w", dir, err)
		}
	case resume:
		logf("checkpoint: no chain in %s, starting fresh", dir)
	}
	w, err := NewDeltaWriter(dir, opts)
	return w, snap, err
}
