// Delta checkpoints: chunked, content-addressed snapshot epochs for
// control planes that checkpoint many sessions every round. A full
// snapshot of an N-session control plane is dominated by model vectors
// that change only at the indices a sparse round touched, so each epoch
// stores its payload as named sections split into fixed-size chunks;
// a chunk whose SHA-256 matches the same chunk of the previous epoch is
// written as a reference to the epoch that physically holds those bytes
// instead of being rewritten. Periodic full rebases bound chain length,
// and garbage collection deletes epochs no longer reachable from the
// latest one.
//
// Epoch files share the package's crash discipline: CRC-framed payload,
// atomic temp-file/fsync/rename writes. References always point at the
// epoch where the chunk is inline (one-hop resolution — reading epoch E
// never walks a chain), which also keeps GC a single mark pass over the
// latest epoch's table.
//
// Callers that want byte-stable sections across epochs must encode large
// vectors fixed-width (AppendF64s/F64sFromBytes), not with gob: gob's
// varint float encoding shifts every byte position after the first
// changed value, defeating positional chunk dedup.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// deltaMagic identifies a delta epoch file; the layout is versioned by
// DeltaVersion independently of full snapshots.
var deltaMagic = [8]byte{'A', 'D', 'F', 'L', 'D', 'E', 'L', 'T'}

// DeltaVersion is the current delta epoch format version.
const DeltaVersion = 1

const (
	// DefaultChunkSize is the dedup granularity. Small enough that a
	// sparse round leaves most chunks of a model vector untouched, large
	// enough that the 33-41 byte table entry per chunk stays negligible.
	DefaultChunkSize = 4096
	// DefaultRebaseEvery forces a full (all-inline) epoch at this cadence
	// so chains stay short and GC can reclaim old epochs.
	DefaultRebaseEvery = 16
	// maxSections and maxSectionName bound hostile tables before any
	// allocation is driven by them.
	maxSections    = 1 << 12
	maxSectionName = 1 << 10

	chunkInline = 0
	chunkRef    = 1
)

// Section is one named byte range of a delta snapshot (e.g. "meta",
// "global"). Section names must be unique within an epoch.
type Section struct {
	Name string
	Data []byte
}

// DeltaChunk is one table entry of a parsed epoch.
type DeltaChunk struct {
	// Hash is the SHA-256 of the chunk's reconstructed bytes.
	Hash [32]byte
	// Inline reports whether the bytes live in this epoch's blob; if
	// false, SrcEpoch names the epoch that holds them inline.
	Inline   bool
	SrcEpoch uint64

	// offset/size locate inline bytes within the epoch blob.
	offset int
	size   int
}

// DeltaSection is one parsed section table.
type DeltaSection struct {
	Name    string
	DataLen uint64
	Chunks  []DeltaChunk
}

// DeltaEpoch is the parsed form of one epoch file.
type DeltaEpoch struct {
	Epoch uint64
	// BaseEpoch is the epoch this one was diffed against (0 for a full
	// rebase). Informational: references carry their own source epoch,
	// and GC may legitimately delete the base while keeping the sources.
	BaseEpoch uint64
	ChunkSize uint32
	Sections  []DeltaSection

	blob []byte
}

// InlineChunk returns the blob bytes of section s, chunk i, which must
// be inline.
func (e *DeltaEpoch) InlineChunk(s, i int) []byte {
	c := &e.Sections[s].Chunks[i]
	return e.blob[c.offset : c.offset+c.size]
}

// section returns the index of the named section, or -1.
func (e *DeltaEpoch) section(name string) int {
	for i := range e.Sections {
		if e.Sections[i].Name == name {
			return i
		}
	}
	return -1
}

// DeltaOptions tunes a DeltaWriter. Zero values select the defaults.
type DeltaOptions struct {
	ChunkSize   int
	RebaseEvery int
}

func (o DeltaOptions) withDefaults() DeltaOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.RebaseEvery <= 0 {
		o.RebaseEvery = DefaultRebaseEvery
	}
	return o
}

// DeltaWriter appends snapshot epochs to a directory as a depth-1
// pipeline. The caller captures an epoch's section bytes on its own loop
// (Begin, Section/F64s, Commit), where reading live session state is safe;
// Commit hands them to one background goroutine that hashes, frames,
// writes, fsyncs, renames, dir-fsyncs and garbage collects while the
// caller runs its next round. The next Begin, and an explicit Wait on every
// exit path, join that goroutine and report its outcome, so at most one
// epoch is ever in flight and no goroutine outlives the caller's run.
//
// Durability contract: an epoch is durable once the call that joins it
// returns, not when Commit does. A crash between the two loses that one
// epoch; the chain on disk is the previous one, complete and untorn.
//
// Not safe for concurrent use; sessions hold one writer each.
type DeltaWriter struct {
	dir  string
	opts DeltaOptions

	// Capture state, touched only by the caller: buf holds the section
	// bytes of the epoch being captured (read by the flush while it is in
	// flight), reused from epoch to epoch.
	buf          []byte
	spans        []sectionSpan
	label        int
	captureStart time.Time
	inFlight     bool
	done         chan DeltaResult // the flush's outcome; holds at most the one epoch in flight

	// Chain state, owned by the flush goroutine while an epoch is in flight
	// and by the caller otherwise (the join orders the two).

	// epoch is the last epoch written (0 before the first).
	epoch uint64
	// prev is the chunk table of the last epoch, with every reference
	// resolved to its physical epoch, so the next flush can both compare
	// hashes and emit one-hop references; spare is the table before it,
	// whose slices the next one is built in. sinceRebase counts the epochs
	// written since (and including) the last full one; 0, before this
	// writer's first, forces a rebase: a writer reopened after a crash
	// starts with a full epoch rather than trusting a chain it has not read.
	prev, spare []sectionTable
	sinceRebase int
	// owned is the ascending set of epoch files in dir: scanned at open,
	// extended by each write, shrunk by GC, so GC never lists the directory.
	owned []uint64
	keep  map[uint64]bool // GC mark set, reused
	out   []byte          // file image (header, table, blob), reused
}

// sectionSpan is one captured section: its bytes run from lo in
// DeltaWriter.buf to the next section's lo.
type sectionSpan struct {
	name string
	lo   int
}

// sectionTable is one section's chunk table as the writer remembers it.
type sectionTable struct {
	name   string
	chunks []DeltaChunk
}

// DeltaResult is the outcome of one epoch, reported by the call that
// joins it.
type DeltaResult struct {
	// Label is the value the caller passed to Begin (its round or version).
	Label int
	// Epoch is the epoch number written (with Err set: attempted, and the
	// next epoch's again); Size its on-disk size, zero on error.
	Epoch uint64
	Size  int64
	// Seconds is the time spent on this epoch, capture plus write, wherever
	// it ran; WaitSeconds is how long the joining call blocked for it.
	Seconds     float64
	WaitSeconds float64
	// Err is the write's failure, if any; the chain on disk is then as the
	// epoch before left it.
	Err error
}

// NewDeltaWriter opens (creating if needed) a delta chain in dir. If
// epochs already exist the writer resumes after the latest one; its
// first epoch is then a full rebase. Temp files a crash mid-write left
// behind are removed: no reader looks at them and GC only knows epochs.
func NewDeltaWriter(dir string, opts DeltaOptions) (*DeltaWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: delta dir: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, "delta-*.ckpt.tmp*"))
	if err != nil {
		return nil, err
	}
	for _, tmp := range stale {
		os.Remove(tmp) // best effort: a leftover is garbage, not corruption
	}
	owned, err := DeltaEpochs(dir)
	if err != nil {
		return nil, err
	}
	w := &DeltaWriter{
		dir:   dir,
		opts:  opts.withDefaults(),
		done:  make(chan DeltaResult, 1),
		owned: owned,
		keep:  make(map[uint64]bool),
	}
	if len(owned) > 0 {
		w.epoch = owned[len(owned)-1]
	}
	return w, nil
}

// Epoch returns the last epoch number written (or resumed past). It must
// not be called while an epoch is in flight.
func (w *DeltaWriter) Epoch() uint64 { return w.epoch }

// Begin joins the epoch in flight, if any, reporting its outcome like
// Wait, and opens the next epoch for capture under the caller's label.
func (w *DeltaWriter) Begin(label int) (DeltaResult, bool) {
	res, ok := w.Wait()
	w.buf, w.spans = w.buf[:0], w.spans[:0]
	w.label = label
	w.captureStart = time.Now()
	return res, ok
}

// Section starts the next section of the epoch being captured and returns
// the writer that appends to it (valid until the next Section, F64s or
// Commit). Names must be unique within an epoch; Commit checks.
func (w *DeltaWriter) Section(name string) io.Writer {
	w.spans = append(w.spans, sectionSpan{name: name, lo: len(w.buf)})
	return (*sectionWriter)(w)
}

// F64s captures vals as one fixed-width section (see AppendF64s).
func (w *DeltaWriter) F64s(name string, vals []float64) {
	w.Section(name)
	w.buf = AppendF64s(w.buf, vals)
}

// captured returns the bytes of the i-th captured section.
func (w *DeltaWriter) captured(i int) []byte {
	hi := len(w.buf)
	if i+1 < len(w.spans) {
		hi = w.spans[i+1].lo
	}
	return w.buf[w.spans[i].lo:hi]
}

// sectionWriter appends to the open section of a DeltaWriter's capture.
type sectionWriter DeltaWriter

func (s *sectionWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// Commit ends the capture and starts the epoch's write in the background.
// The caller may mutate its own state at once: the bytes are the writer's.
// A capture error (bad or duplicate section name) abandons the epoch.
func (w *DeltaWriter) Commit() error {
	if w.inFlight {
		return fmt.Errorf("checkpoint: Commit without Begin")
	}
	for i, s := range w.spans {
		if s.name == "" || len(s.name) > maxSectionName {
			return fmt.Errorf("checkpoint: bad section name %q", s.name)
		}
		for _, t := range w.spans[:i] {
			if t.name == s.name {
				return fmt.Errorf("checkpoint: duplicate section %q", s.name)
			}
		}
	}
	w.inFlight = true
	go w.flush(time.Since(w.captureStart).Seconds())
	return nil
}

// abandon gives up the epoch being captured without starting a write: the
// next join reports err under the epoch's label and number, as it would a
// failed write, and the number is the next epoch's again.
func (w *DeltaWriter) abandon(err error) {
	w.inFlight = true
	w.done <- DeltaResult{Label: w.label, Epoch: w.epoch + 1, Err: err}
}

// Wait joins the epoch in flight and reports its outcome; ok is false
// when none is. Every exit path of a session calls it, so the last
// committed epoch is durable, and the goroutine gone, before Run returns.
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

// Write persists one snapshot epoch synchronously — Begin, capture, Commit
// and Wait in one call — and returns its epoch number and on-disk size.
// Tools and tests use it; a session overlaps the write with its next round.
func (w *DeltaWriter) Write(sections []Section) (uint64, int64, error) {
	w.Begin(0)
	for _, s := range sections {
		w.Section(s.Name).Write(s.Data)
	}
	if err := w.Commit(); err != nil {
		return 0, 0, err
	}
	res, _ := w.Wait()
	if res.Err != nil {
		return 0, 0, res.Err
	}
	return res.Epoch, res.Size, nil
}

// flush writes the captured epoch: chunks unchanged since the previous
// epoch become references, every RebaseEvery-th epoch (and the first after
// open) is written in full, and after a successful write the epochs
// unreachable from the new one are garbage collected. A failed write
// leaves the chain state untouched, so the next epoch reuses the number.
// captureSec is what the capture took, for the epoch's Seconds.
func (w *DeltaWriter) flush(captureSec float64) {
	start := time.Now()
	epoch := w.epoch + 1
	res := DeltaResult{Label: w.label, Epoch: epoch}
	defer func() {
		res.Seconds = captureSec + time.Since(start).Seconds()
		w.done <- res
	}()
	rebase := w.sinceRebase == 0 || w.sinceRebase >= w.opts.RebaseEvery
	cs := w.opts.ChunkSize
	var baseEpoch uint64
	if !rebase {
		baseEpoch = w.epoch
	}
	next := w.spare[:0]

	// The table goes first in the file and its length depends on every
	// hash comparison, so the inline chunks follow in a second pass.
	le := binary.LittleEndian
	out := append(w.out[:0], make([]byte, headerLen)...)
	out = le.AppendUint32(out, uint32(cs))
	out = le.AppendUint64(out, epoch)
	out = le.AppendUint64(out, baseEpoch)
	out = le.AppendUint32(out, uint32(len(w.spans)))
	for si, s := range w.spans {
		data := w.captured(si)
		n := (len(data) + cs - 1) / cs
		out = le.AppendUint16(out, uint16(len(s.name)))
		out = append(out, s.name...)
		out = le.AppendUint64(out, uint64(len(data)))
		out = le.AppendUint32(out, uint32(n))
		var old []DeltaChunk
		if !rebase {
			old = chunksOf(w.prev, s.name, si)
		}
		if len(next) < cap(next) {
			next = next[:len(next)+1] // reuse the slot's chunk slice
		} else {
			next = append(next, sectionTable{})
		}
		t := &next[len(next)-1]
		t.name, t.chunks = s.name, t.chunks[:0]
		for i := 0; i < n; i++ {
			h := sha256.Sum256(chunkAt(data, i, cs))
			if i < len(old) && old[i].Hash == h {
				// Unchanged: reference the epoch that holds the bytes.
				out = append(out, chunkRef)
				out = append(out, h[:]...)
				out = le.AppendUint64(out, old[i].SrcEpoch)
				t.chunks = append(t.chunks, DeltaChunk{Hash: h, SrcEpoch: old[i].SrcEpoch})
				continue
			}
			out = append(out, chunkInline)
			out = append(out, h[:]...)
			t.chunks = append(t.chunks, DeltaChunk{Hash: h, Inline: true, SrcEpoch: epoch})
		}
	}
	for si := range w.spans {
		data := w.captured(si)
		for i, c := range next[si].chunks {
			if c.Inline {
				out = append(out, chunkAt(data, i, cs)...)
			}
		}
	}
	copy(out[:8], deltaMagic[:])
	le.PutUint32(out[8:12], DeltaVersion)
	le.PutUint64(out[12:20], uint64(len(out)-headerLen))
	le.PutUint32(out[20:24], crc32.Checksum(out[headerLen:], castagnoli))
	w.out, w.spare = out, next

	size, err := atomicWrite(filepath.Join(w.dir, deltaFileName(epoch)), func(f io.Writer) error {
		if _, err := f.Write(out); err != nil {
			return fmt.Errorf("checkpoint: write delta epoch: %w", err)
		}
		return nil
	})
	if err != nil {
		res.Err = err
		return
	}
	res.Size = size
	w.epoch = epoch
	w.prev, w.spare = next, w.prev
	if rebase {
		w.sinceRebase = 1
	} else {
		w.sinceRebase++
	}
	w.owned = append(w.owned, epoch)
	w.gc(next, epoch)
}

// chunkAt returns the i-th cs-sized chunk of data (the last may be short).
func chunkAt(data []byte, i, cs int) []byte {
	return data[i*cs : min(len(data), (i+1)*cs)]
}

// chunksOf returns the named section's chunks in a remembered table;
// sections keep their position from epoch to epoch, so that is tried first.
func chunksOf(table []sectionTable, name string, at int) []DeltaChunk {
	if at < len(table) && table[at].name == name {
		return table[at].chunks
	}
	for i := range table {
		if table[i].name == name {
			return table[i].chunks
		}
	}
	return nil
}

// gc removes epoch files unreachable from the latest epoch: anything
// other than the latest itself and the epochs its references point at.
// Failures are ignored — a leftover file is garbage, not corruption, and
// it stays in the owned set for the next pass to retry.
func (w *DeltaWriter) gc(table []sectionTable, latest uint64) {
	clear(w.keep)
	w.keep[latest] = true
	for _, t := range table {
		for _, c := range t.chunks {
			if !c.Inline {
				w.keep[c.SrcEpoch] = true
			}
		}
	}
	// Delete newest-first: references only point backward, so a crash
	// mid-pass can leave an unreferenced old epoch behind but never a
	// surviving epoch whose reference target is already gone.
	for i := len(w.owned) - 1; i >= 0; i-- {
		if e := w.owned[i]; !w.keep[e] {
			err := os.Remove(filepath.Join(w.dir, deltaFileName(e)))
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				w.owned[i] = 0
			}
		}
	}
	live := w.owned[:0]
	for _, e := range w.owned {
		if e != 0 {
			live = append(live, e)
		}
	}
	w.owned = live
}

func deltaFileName(epoch uint64) string {
	return fmt.Sprintf("delta-%08d.ckpt", epoch)
}

// DeltaEpochs lists the epoch numbers present in dir, ascending.
func DeltaEpochs(dir string) ([]uint64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "delta-*.ckpt"))
	if err != nil {
		return nil, err
	}
	epochs := make([]uint64, 0, len(matches))
	for _, m := range matches {
		var e uint64
		if _, err := fmt.Sscanf(filepath.Base(m), "delta-%d.ckpt", &e); err == nil && e > 0 {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// LatestDeltaEpoch reports the highest epoch present in dir, and whether
// any epoch exists at all.
func LatestDeltaEpoch(dir string) (uint64, bool, error) {
	epochs, err := DeltaEpochs(dir)
	if err != nil || len(epochs) == 0 {
		return 0, false, err
	}
	return epochs[len(epochs)-1], true, nil
}

// ParseDeltaEpoch reads and structurally validates one epoch frame from
// r: magic, version, CRC, table bounds, blob length. Chunk hashes are
// verified by readers/auditors, not here. Corrupt input yields an error
// wrapping ErrCorrupt, never a panic, and no allocation is driven by an
// unverified length beyond maxPayload.
func ParseDeltaEpoch(r io.Reader, maxPayload int64) (*DeltaEpoch, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short delta header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], deltaMagic[:]) {
		return nil, fmt.Errorf("%w: bad delta magic", ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(hdr[8:12]); ver != DeltaVersion {
		return nil, fmt.Errorf("%w: unsupported delta version %d", ErrCorrupt, ver)
	}
	payload, err := readPayload(r, hdr, maxPayload)
	if err != nil {
		return nil, err
	}
	return parseDeltaPayload(payload)
}

// parseDeltaPayload decodes the (CRC-verified) payload bytes.
func parseDeltaPayload(p []byte) (*DeltaEpoch, error) {
	off := 0
	need := func(n int) ([]byte, error) {
		if len(p)-off < n {
			return nil, fmt.Errorf("%w: delta table truncated at offset %d", ErrCorrupt, off)
		}
		b := p[off : off+n]
		off += n
		return b, nil
	}
	u16 := func() (uint16, error) {
		b, err := need(2)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(b), nil
	}
	u32 := func() (uint32, error) {
		b, err := need(4)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b), nil
	}
	u64 := func() (uint64, error) {
		b, err := need(8)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b), nil
	}

	cs, err := u32()
	if err != nil {
		return nil, err
	}
	if cs == 0 || cs > 1<<24 {
		return nil, fmt.Errorf("%w: delta chunk size %d out of range", ErrCorrupt, cs)
	}
	epoch, err := u64()
	if err != nil {
		return nil, err
	}
	if epoch == 0 {
		return nil, fmt.Errorf("%w: delta epoch 0", ErrCorrupt)
	}
	base, err := u64()
	if err != nil {
		return nil, err
	}
	if base >= epoch {
		return nil, fmt.Errorf("%w: delta base epoch %d not before epoch %d", ErrCorrupt, base, epoch)
	}
	ns, err := u32()
	if err != nil {
		return nil, err
	}
	if ns > maxSections {
		return nil, fmt.Errorf("%w: %d delta sections exceeds cap", ErrCorrupt, ns)
	}
	e := &DeltaEpoch{Epoch: epoch, BaseEpoch: base, ChunkSize: cs}
	inlineTotal := 0
	names := make(map[string]bool, ns)
	for si := uint32(0); si < ns; si++ {
		nl, err := u16()
		if err != nil {
			return nil, err
		}
		if nl == 0 || nl > maxSectionName {
			return nil, fmt.Errorf("%w: delta section name length %d", ErrCorrupt, nl)
		}
		nb, err := need(int(nl))
		if err != nil {
			return nil, err
		}
		name := string(nb)
		if names[name] {
			return nil, fmt.Errorf("%w: duplicate delta section %q", ErrCorrupt, name)
		}
		names[name] = true
		dataLen, err := u64()
		if err != nil {
			return nil, err
		}
		nc, err := u32()
		if err != nil {
			return nil, err
		}
		wantChunks := (dataLen + uint64(cs) - 1) / uint64(cs)
		if dataLen > math.MaxInt64 || uint64(nc) != wantChunks {
			return nil, fmt.Errorf("%w: section %q declares %d chunks for %d bytes (chunk size %d)", ErrCorrupt, name, nc, dataLen, cs)
		}
		// Every chunk entry consumes at least 33 table bytes; a declared
		// count the remaining payload cannot hold must not size a slice.
		if uint64(nc) > uint64(len(p)-off)/33 {
			return nil, fmt.Errorf("%w: section %q declares %d chunks, table too short", ErrCorrupt, name, nc)
		}
		sec := DeltaSection{Name: name, DataLen: dataLen, Chunks: make([]DeltaChunk, 0, nc)}
		for ci := uint32(0); ci < nc; ci++ {
			kb, err := need(1)
			if err != nil {
				return nil, err
			}
			hb, err := need(32)
			if err != nil {
				return nil, err
			}
			var c DeltaChunk
			copy(c.Hash[:], hb)
			size := int(cs)
			if ci == nc-1 {
				size = int(dataLen - uint64(ci)*uint64(cs))
			}
			switch kb[0] {
			case chunkInline:
				c.Inline = true
				c.SrcEpoch = epoch
				c.offset = inlineTotal
				c.size = size
				inlineTotal += size
			case chunkRef:
				src, err := u64()
				if err != nil {
					return nil, err
				}
				if src == 0 || src >= epoch {
					return nil, fmt.Errorf("%w: section %q chunk %d references epoch %d from epoch %d", ErrCorrupt, name, ci, src, epoch)
				}
				c.SrcEpoch = src
				c.size = size
			default:
				return nil, fmt.Errorf("%w: unknown delta chunk kind %d", ErrCorrupt, kb[0])
			}
			sec.Chunks = append(sec.Chunks, c)
		}
		e.Sections = append(e.Sections, sec)
	}
	if len(p)-off != inlineTotal {
		return nil, fmt.Errorf("%w: delta blob is %d bytes, table promises %d", ErrCorrupt, len(p)-off, inlineTotal)
	}
	e.blob = p[off:]
	return e, nil
}

// DeltaReader reconstructs snapshots from a delta chain, caching parsed
// epochs so a run of reference chunks into one source epoch costs one
// file read. Not safe for concurrent use.
type DeltaReader struct {
	dir        string
	maxPayload int64
	cache      map[uint64]*DeltaEpoch
}

// NewDeltaReader opens a reader over the chain in dir. maxPayload caps
// each epoch file's payload (<=0 selects DefaultMaxPayload); it also
// caps each reconstructed section.
func NewDeltaReader(dir string, maxPayload int64) *DeltaReader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &DeltaReader{dir: dir, maxPayload: maxPayload, cache: make(map[uint64]*DeltaEpoch)}
}

func (r *DeltaReader) load(epoch uint64) (*DeltaEpoch, error) {
	if e, ok := r.cache[epoch]; ok {
		return e, nil
	}
	f, err := os.Open(filepath.Join(r.dir, deltaFileName(epoch)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: delta epoch %d: %w", epoch, err)
	}
	defer f.Close()
	e, err := ParseDeltaEpoch(f, r.maxPayload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: delta epoch %d: %w", epoch, err)
	}
	if e.Epoch != epoch {
		return nil, fmt.Errorf("%w: file %s declares epoch %d", ErrCorrupt, deltaFileName(epoch), e.Epoch)
	}
	r.cache[epoch] = e
	return e, nil
}

// Read reconstructs the named sections of one epoch, verifying every
// chunk hash (inline and referenced) against the epoch's table.
func (r *DeltaReader) Read(epoch uint64) ([]Section, error) {
	e, err := r.load(epoch)
	if err != nil {
		return nil, err
	}
	out := make([]Section, 0, len(e.Sections))
	for si := range e.Sections {
		sec := &e.Sections[si]
		if sec.DataLen > uint64(r.maxPayload) {
			return nil, fmt.Errorf("%w: section %q is %d bytes, cap %d", ErrCorrupt, sec.Name, sec.DataLen, r.maxPayload)
		}
		data := make([]byte, 0, sec.DataLen)
		for ci := range sec.Chunks {
			c := &sec.Chunks[ci]
			var part []byte
			if c.Inline {
				part = e.InlineChunk(si, ci)
			} else {
				src, err := r.load(c.SrcEpoch)
				if err != nil {
					return nil, fmt.Errorf("checkpoint: section %q chunk %d: %w", sec.Name, ci, err)
				}
				part, err = refChunk(src, sec.Name, ci, c)
				if err != nil {
					return nil, err
				}
			}
			if sha256.Sum256(part) != c.Hash {
				return nil, fmt.Errorf("%w: section %q chunk %d hash mismatch", ErrCorrupt, sec.Name, ci)
			}
			data = append(data, part...)
		}
		out = append(out, Section{Name: sec.Name, Data: data})
	}
	return out, nil
}

// ReadLatest reconstructs the newest epoch in the chain, returning its
// epoch number alongside the sections. It reports os.ErrNotExist if the
// directory holds no epochs.
func (r *DeltaReader) ReadLatest() (uint64, []Section, error) {
	latest, ok, err := LatestDeltaEpoch(r.dir)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("checkpoint: no delta epochs in %s: %w", r.dir, os.ErrNotExist)
	}
	secs, err := r.Read(latest)
	return latest, secs, err
}

// refChunk locates the inline bytes a reference points at: same section
// name, same chunk index, in the source epoch. The one-hop invariant
// means the source chunk must itself be inline with the same hash.
func refChunk(src *DeltaEpoch, name string, ci int, want *DeltaChunk) ([]byte, error) {
	si := src.section(name)
	if si < 0 {
		return nil, fmt.Errorf("%w: epoch %d has no section %q for reference", ErrCorrupt, src.Epoch, name)
	}
	if ci >= len(src.Sections[si].Chunks) {
		return nil, fmt.Errorf("%w: epoch %d section %q has no chunk %d for reference", ErrCorrupt, src.Epoch, name, ci)
	}
	c := &src.Sections[si].Chunks[ci]
	if !c.Inline {
		return nil, fmt.Errorf("%w: reference into epoch %d section %q chunk %d lands on another reference", ErrCorrupt, src.Epoch, name, ci)
	}
	if c.Hash != want.Hash {
		return nil, fmt.Errorf("%w: epoch %d section %q chunk %d hash does not match reference", ErrCorrupt, src.Epoch, name, ci)
	}
	return src.InlineChunk(si, ci), nil
}

// DeltaAudit summarises an offline integrity pass over a delta chain.
type DeltaAudit struct {
	// Epochs present in the directory, ascending.
	Epochs []uint64
	// Latest is the newest epoch (the one a resume would read).
	Latest uint64
	// Chunks and Refs count table entries across all epochs; Bytes is the
	// total on-disk size.
	Chunks int
	Refs   int
	Bytes  int64
}

// AuditDelta verifies every epoch file in dir: frame CRC, table
// structure, inline chunk hashes, and reference resolution (target epoch
// present, chunk inline there, hashes equal). It then fully reconstructs
// the latest epoch. Any inconsistency returns an error wrapping
// ErrCorrupt (or the underlying I/O error).
func AuditDelta(dir string) (*DeltaAudit, error) {
	epochs, err := DeltaEpochs(dir)
	if err != nil {
		return nil, err
	}
	if len(epochs) == 0 {
		return nil, fmt.Errorf("checkpoint: no delta epochs in %s: %w", dir, os.ErrNotExist)
	}
	a := &DeltaAudit{Epochs: epochs, Latest: epochs[len(epochs)-1]}
	r := NewDeltaReader(dir, DefaultMaxPayload)
	for _, epoch := range epochs {
		fi, err := os.Stat(filepath.Join(dir, deltaFileName(epoch)))
		if err == nil {
			a.Bytes += fi.Size()
		}
		e, err := r.load(epoch)
		if err != nil {
			return a, err
		}
		for si := range e.Sections {
			sec := &e.Sections[si]
			for ci := range sec.Chunks {
				c := &sec.Chunks[ci]
				a.Chunks++
				if c.Inline {
					if sha256.Sum256(e.InlineChunk(si, ci)) != c.Hash {
						return a, fmt.Errorf("%w: epoch %d section %q chunk %d inline hash mismatch", ErrCorrupt, epoch, sec.Name, ci)
					}
					continue
				}
				a.Refs++
				src, err := r.load(c.SrcEpoch)
				if err != nil {
					return a, fmt.Errorf("checkpoint: epoch %d section %q chunk %d: %w", epoch, sec.Name, ci, err)
				}
				if _, err := refChunk(src, sec.Name, ci, c); err != nil {
					return a, fmt.Errorf("checkpoint: epoch %d: %w", epoch, err)
				}
			}
		}
	}
	if _, err := r.Read(a.Latest); err != nil {
		return a, err
	}
	return a, nil
}

// AppendF64s appends vals to dst as fixed-width little-endian float64
// bits. Fixed-width encoding keeps unchanged values at unchanged byte
// offsets across epochs, which is what makes chunk-level dedup work for
// model vectors.
func AppendF64s(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// F64sFromBytes decodes a fixed-width float64 section written by
// AppendF64s.
func F64sFromBytes(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: float section length %d not a multiple of 8", ErrCorrupt, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}
