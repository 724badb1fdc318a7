// Package checkpoint is the durable-state layer of long-lived training
// sessions: one snapshot file per checkpoint directory, replaced whole every
// round or model version (DeltaWriter), read back by ReadSnapshot, and
// started or resumed through the one policy in Open. A file is a header
// (magic, version, payload length, CRC-32C of the payload) and a payload of
// named, length-prefixed sections. Every write goes to a temp file that is
// fsynced and renamed over the destination (atomicWrite): a process killed
// at any point leaves the previous complete file or the new one.
package checkpoint

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"adafl/internal/tensor"
)

// magic identifies a checkpoint file; a layout change bumps Version.
var magic = [8]byte{'A', 'D', 'F', 'L', 'C', 'K', 'P', 'T'}

// Version is the file format version: 1 framed a bare gob, 2 named
// sections, 3 metas that hold no map.
const Version = 3

const (
	// headerLen is magic(8) + version(4) + payload length(8) + crc(4).
	headerLen = 24
	// DefaultMaxPayload bounds the payload length a reader will believe:
	// snapshots are model vectors plus bookkeeping, far below 1 GiB.
	DefaultMaxPayload = 1 << 30
	// maxSections and maxSectionName bound a section table; a section takes
	// at least minSection bytes (name length, a one-byte name, data length).
	maxSections    = 1 << 12
	maxSectionName = 1 << 10
	minSection     = 2 + 1 + 8
	// fileName is the snapshot file of a checkpoint directory.
	fileName = "snapshot.ckpt"
)

// ErrCorrupt marks a file that failed verification (magic, version, a length,
// the CRC, the section table): callers tell it from an I/O error to decide
// between "refuse to resume" and "retry the read".
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// castagnoli is the CRC-32C table, hardware accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section is one named byte range of a file; names are unique within one.
type Section struct {
	Name string
	Data []byte
}

// frame builds one file image in place — header, section count, then each
// section's name, length and bytes — so a capture goes to disk uncopied.
type frame struct {
	buf   []byte
	names []string
	open  int // offset of the open section's length field, 0 when none is
}

func (f *frame) reset() {
	f.buf = append(f.buf[:0], make([]byte, headerLen+4)...)
	f.names, f.open = f.names[:0], 0
}

// section closes the open section and opens the named one, which f's Write
// appends to.
func (f *frame) section(name string) io.Writer {
	f.close()
	f.names = append(f.names, name)
	f.buf = binary.LittleEndian.AppendUint16(f.buf, uint16(len(name)))
	f.buf = append(f.buf, name...)
	f.open = len(f.buf)
	f.buf = append(f.buf, make([]byte, 8)...)
	return f
}

func (f *frame) close() {
	if f.open > 0 {
		binary.LittleEndian.PutUint64(f.buf[f.open:], uint64(len(f.buf)-f.open-8))
		f.open = 0
	}
}

func (f *frame) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

// finish ends the capture: it checks the names and records their count.
func (f *frame) finish() error {
	f.close()
	for i, name := range f.names {
		if name == "" || len(name) > maxSectionName || i >= maxSections {
			return fmt.Errorf("checkpoint: bad section name %q (section %d)", name, i)
		}
		if slices.Contains(f.names[:i], name) {
			return fmt.Errorf("checkpoint: duplicate section %q", name)
		}
	}
	binary.LittleEndian.PutUint32(f.buf[headerLen:], uint32(len(f.names)))
	return nil
}

// seal fills in the header of a finished image.
func (f *frame) seal() {
	copy(f.buf, magic[:])
	binary.LittleEndian.PutUint32(f.buf[8:], Version)
	binary.LittleEndian.PutUint64(f.buf[12:], uint64(len(f.buf)-headerLen))
	binary.LittleEndian.PutUint32(f.buf[20:], crc32.Checksum(f.buf[headerLen:], castagnoli))
}

// parse reads one file from r and returns its sections, which alias one
// buffer. A fault of the file yields an error wrapping ErrCorrupt, never a
// panic, and no length sizes an allocation before it is checked: the buffer
// grows at most by doubling what was read, the table by the bytes left.
func parse(r io.Reader, maxPayload int64) ([]Section, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(hdr[8:12]); ver != Version {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, ver)
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	n := binary.LittleEndian.Uint64(hdr[12:20])
	if n > uint64(maxPayload) {
		return nil, fmt.Errorf("%w: declared payload %d exceeds cap %d", ErrCorrupt, n, maxPayload)
	}
	p := make([]byte, 0, min(n, 1<<20))
	for k := 0; uint64(len(p)) < n; p = p[:len(p)+k] {
		if len(p) == cap(p) {
			p = slices.Grow(p, int(min(n-uint64(len(p)), uint64(len(p)))))
		}
		var err error
		if k, err = io.ReadFull(r, p[len(p):min(uint64(cap(p)), n)]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes: %v", ErrCorrupt, len(p)+k, n, err)
		}
	}
	if got, want := crc32.Checksum(p, castagnoli), binary.LittleEndian.Uint32(hdr[20:]); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}

	if len(p) < 4 {
		return nil, fmt.Errorf("%w: payload of %d bytes has no section count", ErrCorrupt, len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if count > maxSections || uint64(count)*minSection > uint64(len(p)) {
		return nil, fmt.Errorf("%w: %d sections declared in %d bytes (cap %d)", ErrCorrupt, count, len(p), maxSections)
	}
	secs := make([]Section, 0, count)
	for range count {
		nl := 0
		if len(p) >= 2 {
			nl = int(binary.LittleEndian.Uint16(p))
		}
		if nl == 0 || nl > maxSectionName || len(p) < 2+nl+8 {
			return nil, fmt.Errorf("%w: section name length %d in %d bytes", ErrCorrupt, nl, len(p))
		}
		name := string(p[2 : 2+nl])
		size := binary.LittleEndian.Uint64(p[2+nl:])
		p = p[2+nl+8:]
		if size > uint64(len(p)) {
			return nil, fmt.Errorf("%w: section %q declares %d bytes, %d left", ErrCorrupt, name, size, len(p))
		}
		if _, dup := section(secs, name); dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		secs = append(secs, Section{Name: name, Data: p[:size:size]})
		p = p[size:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last section", ErrCorrupt, len(p))
	}
	return secs, nil
}

// read parses the file at path and reports its size on disk.
func read(path string) ([]Section, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	secs, err := parse(f, DefaultMaxPayload)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return secs, fi.Size(), nil
}

func section(secs []Section, name string) ([]byte, bool) {
	for _, s := range secs {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// decodeMeta gob-decodes the "meta" section of secs into v.
func decodeMeta(secs []Section, v interface{}) error {
	b, ok := section(secs, secMeta)
	if !ok {
		return fmt.Errorf("%w: no %q section", ErrCorrupt, secMeta)
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil { // a type mismatch: the CRC passed
		return fmt.Errorf("%w: decode meta: %v", ErrCorrupt, err)
	}
	return nil
}

// Save atomically writes v to path as a file whose one section, "meta", is
// the gob of v. An existing file at path is replaced only once the new one
// is durable.
func Save(path string, v interface{}) error {
	var f frame
	f.reset()
	if err := gob.NewEncoder(f.section(secMeta)).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	_ = f.finish() // one fixed, valid name: nothing to refuse
	f.seal()
	return atomicWrite(path, f.buf)
}

// atomicWrite writes data to a temp file in path's directory, then fsyncs,
// renames it over path and fsyncs the directory.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	// Make the rename durable. Some filesystems reject Sync on a directory;
	// a crash then loses at most the rename, never tears a file.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// AppendF64s appends vals to dst as fixed-width little-endian float64 bits,
// the layout of a snapshot's vector sections.
func AppendF64s(dst []byte, vals []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:n+8*len(vals)]
	tensor.PutF64LE(dst[n:], vals)
	return dst
}

// The snapshot layout, in section order: "meta", a gob of the engine's plain
// struct (not JSON: an unevaluated round's TestAcc is NaN); one fixed-width
// f64 section per named vector; "round", the little-endian u64 duplicate of
// Meta.Round that an auditor reads without knowing any engine's types.
const (
	secMeta  = "meta"
	secRound = "round"
)

// Meta is an engine's snapshot struct; Round, the completed round or model
// version it was taken at, is the snapshot's label. It holds no map (gob
// writes one in iteration order) but SortedPairs, so one state is one file.
type Meta interface{ Round() int }

// SortedPairs returns m's entries as key, value pairs in ascending key
// order.
func SortedPairs(m map[int]int) [][2]int {
	out := make([][2]int, 0, len(m))
	for k, v := range m {
		out = append(out, [2]int{k, v})
	}
	slices.SortFunc(out, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	return out
}

// Vector is one named model-sized vector of a snapshot.
type Vector struct {
	Name string
	Vals []float64
}

// DeltaWriter replaces a directory's snapshot file as a depth-1 pipeline:
// the caller captures a snapshot on its own loop (Begin, Section/F64s,
// Commit) and one goroutine writes it while the caller runs its next round.
// The next Begin, and a Wait on every exit path, join that goroutine and
// report its outcome, so at most one write is in flight and none outlives
// the caller's run. A snapshot is durable once the call that joins it
// returns; a crash before loses that one, leaving the previous file whole.
// Not safe for concurrent use.
type DeltaWriter struct {
	path         string
	f            frame // the capture: the caller's until Commit, the write's until the join
	label        int
	captureStart time.Time
	inFlight     bool
	done         chan DeltaResult // the outcome of the one write in flight
}

// DeltaResult is the outcome of one snapshot, reported by the call that
// joins it: the label passed to Begin, the file's size (zero on error), the
// seconds of capture plus write wherever it ran, the seconds the joining call
// blocked, and the failure, after which the file on disk is the one before.
type DeltaResult struct {
	Label       int
	Size        int64
	Seconds     float64
	WaitSeconds float64
	Err         error
}

// newWriter opens (creating) dir and removes the temp files a crash left.
func newWriter(dir string) (*DeltaWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: dir: %w", err)
	}
	path := filepath.Join(dir, fileName)
	stale, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		return nil, err
	}
	for _, tmp := range stale {
		os.Remove(tmp) // best effort: a leftover is garbage, not corruption
	}
	return &DeltaWriter{path: path, done: make(chan DeltaResult, 1)}, nil
}

// Begin joins the write in flight like Wait and opens the next capture
// under the caller's label.
func (w *DeltaWriter) Begin(label int) (DeltaResult, bool) {
	res, ok := w.Wait()
	w.f.reset()
	w.label = label
	w.captureStart = time.Now()
	return res, ok
}

// Section starts the next section of the capture and returns its writer,
// valid until the next Section, F64s or Commit.
func (w *DeltaWriter) Section(name string) io.Writer { return w.f.section(name) }

// F64s captures vals as one fixed-width section (see AppendF64s).
func (w *DeltaWriter) F64s(name string, vals []float64) {
	w.f.section(name)
	w.f.buf = AppendF64s(w.f.buf, vals)
}

// Commit ends the capture and starts the write; the caller may mutate its
// state at once. A bad or duplicate section name starts nothing.
func (w *DeltaWriter) Commit() error {
	if w.inFlight {
		return fmt.Errorf("checkpoint: Commit without Begin")
	}
	if err := w.f.finish(); err != nil {
		return err
	}
	w.inFlight = true
	go w.flush(time.Since(w.captureStart).Seconds())
	return nil
}

// flush seals the capture and replaces the file with it.
func (w *DeltaWriter) flush(captureSec float64) {
	start := time.Now()
	w.f.seal()
	res := DeltaResult{Label: w.label, Err: atomicWrite(w.path, w.f.buf)}
	if res.Err == nil {
		res.Size = int64(len(w.f.buf))
	}
	res.Seconds = captureSec + time.Since(start).Seconds()
	w.done <- res
}

// Wait joins the write in flight and reports its outcome; ok is false when
// none is.
func (w *DeltaWriter) Wait() (res DeltaResult, ok bool) {
	if !w.inFlight {
		return DeltaResult{}, false
	}
	start := time.Now()
	res = <-w.done
	w.inFlight = false
	res.WaitSeconds = time.Since(start).Seconds()
	return res, true
}

// Snapshot joins the write in flight like Wait and captures the next
// snapshot in the snapshot layout, to be written behind the caller's next
// round. A failed capture (gob refusing meta, a vector named like a fixed
// section) is reported at the next join like a failed write.
func (w *DeltaWriter) Snapshot(meta Meta, vecs ...Vector) (DeltaResult, bool) {
	round := meta.Round()
	joined, ok := w.Begin(round)
	err := gob.NewEncoder(w.Section(secMeta)).Encode(meta)
	for _, v := range vecs {
		w.F64s(v.Name, v.Vals)
	}
	w.Section(secRound)
	w.f.buf = binary.LittleEndian.AppendUint64(w.f.buf, uint64(round))
	if err == nil {
		err = w.Commit()
	}
	if err != nil {
		w.inFlight = true
		w.done <- DeltaResult{Label: round, Err: fmt.Errorf("checkpoint: capture: %w", err)}
	}
	return joined, ok
}

// Snapshot is a directory's snapshot file, read back and verified: its bare
// round label and its size on disk.
type Snapshot struct {
	Round    int
	Size     int64
	sections []Section
}

// ReadSnapshot reads the snapshot file in dir and checks the layout's fixed
// sections. With no snapshot in dir the error wraps os.ErrNotExist.
func ReadSnapshot(dir string) (*Snapshot, error) {
	secs, size, err := read(filepath.Join(dir, fileName))
	if err != nil {
		return nil, err
	}
	label, _ := section(secs, secRound)
	if _, ok := section(secs, secMeta); !ok || len(label) != 8 {
		return nil, fmt.Errorf("%w: %s is not a session snapshot (meta section present: %v, round label %d bytes, want 8)",
			ErrCorrupt, fileName, ok, len(label))
	}
	return &Snapshot{Round: int(binary.LittleEndian.Uint64(label)), Size: size, sections: secs}, nil
}

// VectorLen is the length of the named vector, -1 when there is none.
func (s *Snapshot) VectorLen(name string) int {
	b, ok := section(s.sections, name)
	if !ok || len(b)%8 != 0 {
		return -1
	}
	return len(b) / 8
}

// Restore is the inverse of DeltaWriter.Snapshot: it decodes meta, which
// must agree with the round label, and fills each of vecs in place from the
// section of its name; a vector of another length is another model's.
func (s *Snapshot) Restore(meta Meta, vecs ...Vector) error {
	if err := decodeMeta(s.sections, meta); err != nil {
		return err
	}
	if meta.Round() != s.Round {
		return fmt.Errorf("%w: round label %d disagrees with meta round %d", ErrCorrupt, s.Round, meta.Round())
	}
	for _, v := range vecs {
		b, ok := section(s.sections, v.Name)
		switch {
		case !ok:
			return fmt.Errorf("%w: snapshot has no %q section", ErrCorrupt, v.Name)
		case len(b)%8 != 0:
			return fmt.Errorf("%w: snapshot %q section is %d bytes, not whole float64s", ErrCorrupt, v.Name, len(b))
		case len(b)/8 != len(v.Vals):
			return fmt.Errorf("snapshot %q holds %d values, this session's model has %d (model or seed changed?)",
				v.Name, len(b)/8, len(v.Vals))
		}
		tensor.ReadF64LE(v.Vals, b)
	}
	return nil
}

// Open applies the one start policy to a session's checkpoint directory and
// returns its writer, with the snapshot to restore when the session resumes:
//
//	snapshot, resume:    the snapshot; the writer replaces it next
//	snapshot, no resume: refused — a crash before the new session's first
//	                     join would resume the old model under its log
//	none, resume:        a fresh start, logged (a supervisor can always
//	                     pass resume)
//	none, no resume:     a fresh start
//
// Only the snapshot file counts: an older binary's delta-*.ckpt chain is none.
func Open(dir string, resume bool, logf func(string, ...interface{})) (*DeltaWriter, *Snapshot, error) {
	var snap *Snapshot
	_, err := os.Stat(filepath.Join(dir, fileName))
	switch {
	case err == nil && !resume:
		return nil, nil, fmt.Errorf("checkpoint: %s already holds a snapshot; resume it or use a fresh directory", dir)
	case err == nil:
		if snap, err = ReadSnapshot(dir); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: resume from %s: %w", dir, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	case resume:
		logf("checkpoint: no %s in %s, starting fresh", fileName, dir)
	}
	w, err := newWriter(dir)
	return w, snap, err
}

// The names below remain only for bench/probes.go; delete them with it
// (ROADMAP item 1). DeltaOptions is empty: a snapshot has nothing to tune.
type DeltaOptions struct{}

// NewDeltaWriter opens dir like Open without the start policy.
func NewDeltaWriter(dir string, _ DeltaOptions) (*DeltaWriter, error) { return newWriter(dir) }

// Write persists sections synchronously — Begin, capture, Commit and Wait
// in one call — and returns the file's size and the seconds it took.
func (w *DeltaWriter) Write(sections []Section) (int64, float64, error) {
	w.Begin(0)
	for _, s := range sections {
		w.Section(s.Name).Write(s.Data)
	}
	if err := w.Commit(); err != nil {
		return 0, 0, err
	}
	res, _ := w.Wait()
	return res.Size, res.Seconds, res.Err
}

// DeltaReader reads a directory's snapshot file as raw sections, capping the
// payload at DefaultMaxPayload.
type DeltaReader string

// NewDeltaReader returns the reader of dir.
func NewDeltaReader(dir string, _ int64) DeltaReader { return DeltaReader(dir) }

// ReadLatest returns the snapshot file's size and sections.
func (r DeltaReader) ReadLatest() (int64, []Section, error) {
	secs, size, err := read(filepath.Join(string(r), fileName))
	return size, secs, err
}
