package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"adafl/internal/compress"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Wire protocol (see DESIGN.md §Wire protocol):
//
//	frame    := u32 LE payload-length | payload
//	payload  := u8 type | u8 flags(0) | i32 LE clientID | i32 LE round | body
//	body     :=                                 (per type)
//	  Hello     i32 LE numSamples
//	            | [u8 sessionLen | session name]                 (multi-session)
//	  Welcome   (empty)
//	  Score     f64 LE score
//	  Select    f64 LE ratio
//	            | [u8 codecLen | codec name | u32 LE levels]   (negotiated)
//	  Update    sparse section (see internal/compress wire layout)
//	  Shutdown  u32 LE len | UTF-8 info
//	  Model     u32 LE nParams | nParams × f32 | ĝ as a sparse section of
//	            dim nParams (ĝ's coordinates whose bits are not +0, or the
//	            dense layout when no larger; empty in the warm-up)
//	  Ping      i32 LE numSamples (progress count)
//	  EdgeHello i32 LE numSamples | u32 LE len | info
//	  EdgePartial i32 LE numSamples | i64 LE weight word | u32 LE n
//	            | n × i64 LE sum words  (shard.Partial's fixed point: a sum
//	            word counts 2⁻⁵⁰, the weight word 2⁻⁴⁰; Envelope.Params
//	            carries each word's bits in a float64 slot)
//	  Reroute   u32 LE len | UTF-8 info (the assigned edge's address)
//	  AsyncPull (empty — round field is ignored; the reply's Round is the
//	            global model version)
//	  AsyncPush sparse section (round field = the model version the delta
//	            was trained from)
//
// The length prefix excludes its own 4 bytes. Explicit framing is what
// makes receive-side accounting exact: a Conn reads exactly 4+len bytes
// per message, never a block of read-ahead, so the bytes{dir} counters
// and the per-message size cap are exact.
//
// Handshake: a dialer opens with a 4-byte preamble and the listener
// answers with its own (Dial, Accept). There is no second codec to fall
// back to: peers of unequal versions part with ErrWireVersion.

// WireBinary is the only value, besides "", that the Wire fields of the
// server, client, fleet, session and edge configs accept. The fields
// select nothing; they go with the benchmark-v2 PR (ROADMAP item 4),
// which may edit the bench/ call sites that still set them.
const WireBinary = "binary"

// checkWire rejects any Wire value but "" and WireBinary.
func checkWire(wire string) error {
	if wire != "" && wire != WireBinary {
		return fmt.Errorf("rpc: unknown wire codec %q (want %q)", wire, WireBinary)
	}
	return nil
}

// wireVersion 2: the sparse section gained the ascending (varint index
// run) and f32 layouts. A v1 decoder ignores the sflags bits that announce
// them and would misread the frame, which is what the version byte is
// for: the two refuse each other at the handshake.
//
// wireVersion 3: a model broadcast carries its parameters as f32, the
// precision every receiver's model holds them in (its global delta, a
// score input, and an edge partial, a sum, stay f64). A v2 decoder would
// read the f32 run as half as many doubles.
//
// wireVersion 4: an edge hello ends at its address; the region string
// that followed it is gone. A v3 decoder would refuse the shorter body.
//
// wireVersion 5: a model broadcast's ĝ is a sparse section, not a dense
// f64 run behind a count. A v4 decoder would read the section as doubles.
//
// wireVersion 6: a sparse section's ascending index run is a Rice code,
// not a varint run, and its float32 values travel as four byte planes,
// each raw or Huffman-coded. A v5 decoder would misread both.
const wireVersion = 6

// preamble returns the four opening bytes of a peer speaking version v.
func preamble(v byte) [4]byte { return [4]byte{0xAD, 0xF1, 0x77, v} }

// wirePreamble is what a dialer opens with and expects back. (Accept
// speaks wireVersion whatever this holds, so a test can patch it to pose
// as a dialer of another version.)
var wirePreamble = preamble(wireVersion)

// ErrWireVersion reports a peer that speaks another version of the wire
// protocol. Redialling cannot help: RunClient and the edge tier treat it
// as permanent.
var ErrWireVersion = errors.New("rpc: wire version mismatch")

// helloTimeout bounds the handshake on a freshly accepted connection —
// preamble, answer and hello frame — so a dialer that never speaks cannot
// pin the goroutine admitting it.
const helloTimeout = 5 * time.Second

// maxHelloBytes caps a connection's first frame (at most a Hello with a
// 255-byte session name, or an EdgeHello with an address):
// a peer that has not said who it is gets no more allocated on its word.
const maxHelloBytes = 4 << 10

// envHeaderBytes is the fixed payload prefix: type, flags, clientID, round.
const envHeaderBytes = 10

// wireChunkBytes sizes the per-connection scratch used to convert float
// runs to wire bytes in bounded pieces. Streaming through the chunk (and
// bufio) instead of materialising whole frames keeps a connection's
// steady-state memory at a few KB even when broadcasting multi-MB models.
const wireChunkBytes = 4096

// recvPieceBytes bounds the receive side's frame buffer for a model
// broadcast. A frame at or under it is read whole with one ReadFull; a
// longer MsgModel frame is read in pieces of at most this size, each
// decoded straight into the broadcast's params and ĝ, so a multi-MB model
// never has a frame-sized buffer. It is also the size past which a frame
// buffer that has grown for a dense warm-up shrinks back (frameBuf).
const recvPieceBytes = 64 << 10

// defaultWireBufSize is the send-side bufio buffer of a binary Conn.
const defaultWireBufSize = 32 << 10

// errWireFrame marks structurally invalid binary frames (truncation,
// length/body mismatch, unknown message type).
var errWireFrame = fmt.Errorf("rpc: malformed binary frame")

// writeEnvelope writes e's length-prefixed binary frame into the send
// buffer; the caller flushes. Steady-state sends of every message type are
// allocation-free: the frame header, scalar and string bodies go through
// the connection's header scratch, float runs stream through the chunk
// scratch, and bufio batches the socket writes.
func (c *Conn) writeEnvelope(e *Envelope) error {
	if (e.Type == MsgUpdate || e.Type == MsgAsyncPush) && e.Update != nil {
		// The sparse encoder decides its layout once per frame and reports
		// the section's size before its first byte, which is where the
		// length prefix goes: no second scan of the update to size it.
		return e.Update.EncodeBinaryTo(c.bw, c.chunk, func(size int) error { return c.writeFrameHead(e, size) })
	}
	if err := c.writeFrameHead(e, e.tailSize(&c.sendDelta)); err != nil {
		return err
	}
	switch e.Type {
	case MsgModel:
		if err := c.writeF32s(e.Params); err != nil {
			return err
		}
		return c.sendDelta.EncodeBinaryTo(c.bw, c.chunk)
	case MsgEdgePartial:
		return c.writeF64s(e.Params)
	}
	return nil
}

// tailSize returns the bytes of e's frame past appendFrameHead's: a
// model's params and ĝ section, planned in g (GlobalDelta, of dim
// len(Params), which g panics on if GlobalDelta is of another length), or
// an edge partial's sum words.
func (e *Envelope) tailSize(g *compress.Support) int {
	switch e.Type {
	case MsgModel:
		return 4*len(e.Params) + g.Plan(e.GlobalDelta, len(e.Params))
	case MsgEdgePartial:
		return 8 * len(e.Params)
	}
	return 0
}

// A Frame is one MsgModel or MsgEdgePartial encoded once, length prefix
// included: the bytes Send would write for it. A server that sends the
// same model to every peer of a round, or to every pull of a model
// version, encodes it once and writes the bytes as they are; an edge
// encodes its partial into one frame it reuses round after round, and a
// frame bigger than the send buffer leaves in one Write (sendLocked).
type Frame struct {
	b []byte
	g compress.Support // a MsgModel's ĝ section
}

// ModelFrame encodes the MsgModel of round with params (at f32) and
// globalDelta. The frame keeps no reference to either slice.
func ModelFrame(round int, params, globalDelta []float64) *Frame {
	return new(Frame).Set(&Envelope{Type: MsgModel, Round: round, Params: params, GlobalDelta: globalDelta})
}

// Set encodes e, a MsgModel or a MsgEdgePartial, into f's own buffer and
// returns f, for a sender that is done writing f before it encodes the
// next message (the sync server's rounds, an edge's partials). The frame
// keeps no reference to e. It panics on any other message type.
func (f *Frame) Set(e *Envelope) *Frame {
	if e.Type != MsgModel && e.Type != MsgEdgePartial {
		panic(fmt.Sprintf("rpc: Frame of a %v", e.Type))
	}
	tail := e.tailSize(&f.g)
	// 64 bytes hold either type's head; AppendBinary wants 8 more.
	b, _ := appendFrameHead(slices.Grow(f.b[:0], 64+tail+8), e, tail)
	n := len(b)
	if e.Type == MsgModel {
		tensor.NarrowLE(b[n:n+4*len(e.Params)], e.Params)
		f.b = f.g.AppendBinary(b[:n+4*len(e.Params)])
		return f
	}
	f.b = b[:n+tail]
	tensor.PutF64LE(f.b[n:], e.Params)
	return f
}

// writeFrameHead writes appendFrameHead's bytes through the connection's
// header scratch.
func (c *Conn) writeFrameHead(e *Envelope, tail int) error {
	h, err := appendFrameHead(c.sendHdr[:0], e, tail)
	if err != nil {
		return err
	}
	c.sendHdr = h[:0] // keep any growth for the next send
	_, err = c.bw.Write(h)
	return err
}

// appendFrameHead appends e's frame up to its float vectors or sparse
// section, tail bytes that follow it: the length prefix (which counts
// them), the envelope header and the type's scalar and string body — the
// whole frame, for a message that has neither. It fails on a message it
// cannot encode.
func appendFrameHead(h []byte, e *Envelope, tail int) ([]byte, error) {
	start := len(h)
	h = append(h, 0, 0, 0, 0, byte(e.Type), 0)
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.ClientID)))
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.Round)))
	switch e.Type {
	case MsgHello:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		if e.Session != "" {
			// Multi-session extension: u8 sessionLen | name. An empty
			// session keeps the legacy 4-byte body so pre-session decoders
			// still accept the frame.
			if len(e.Session) > 255 {
				return nil, fmt.Errorf("rpc: send hello with %d-byte session name", len(e.Session))
			}
			h = append(append(h, byte(len(e.Session))), e.Session...)
		}
	case MsgWelcome, MsgAsyncPull:
	case MsgScore:
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(e.Score))
	case MsgSelect:
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(e.Ratio))
		if e.Codec != "" || e.Levels != 0 {
			// Negotiated extension: u8 codecLen | name | u32 levels. A
			// zero-valued assignment keeps the legacy 8-byte body so
			// pre-negotiation decoders still accept the frame.
			if len(e.Codec) > 255 {
				return nil, fmt.Errorf("rpc: send select with %d-byte codec name", len(e.Codec))
			}
			h = append(append(h, byte(len(e.Codec))), e.Codec...)
			h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.Levels)))
		}
	case MsgShutdown, MsgReroute:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
		h = append(h, e.Info...)
	case MsgModel:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Params)))
	case MsgUpdate, MsgAsyncPush:
		if e.Update == nil {
			return nil, fmt.Errorf("rpc: send message type %d without payload", e.Type)
		}
	case MsgPing:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
	case MsgEdgeHello:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
		h = append(h, e.Info...)
	case MsgEdgePartial:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		h = binary.LittleEndian.AppendUint64(h, uint64(e.WeightSum))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Params)))
	default:
		return nil, fmt.Errorf("rpc: send unknown message type %v", e.Type)
	}
	binary.LittleEndian.PutUint32(h[start:], uint32(len(h)-start-4+tail))
	return h, nil
}

// writeF32s streams vals, each rounded to the nearest float32, through the
// chunk scratch.
func (c *Conn) writeF32s(vals []float64) error {
	for off := 0; off < len(vals); {
		n := min(len(vals)-off, len(c.chunk)/4)
		tensor.NarrowLE(c.chunk[:4*n], vals[off:off+n])
		if _, err := c.bw.Write(c.chunk[:4*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// writeF64s streams vals through the chunk scratch.
func (c *Conn) writeF64s(vals []float64) error {
	for off := 0; off < len(vals); {
		n := min(len(vals)-off, len(c.chunk)/8)
		tensor.PutF64LE(c.chunk[:8*n], vals[off:off+n])
		if _, err := c.bw.Write(c.chunk[:8*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// recvBinary reads exactly one frame. With fresh=false (RecvInto) the
// decoded slices and the Update payload live in connection-owned scratch,
// valid until the next RecvInto on this connection; with fresh=true
// (Recv) they are freshly allocated and safe to retain.
//
// The first min(length, recvPieceBytes) payload bytes are read in one
// ReadFull: that is the whole of a small frame. A longer frame of any
// type but MsgModel is then read to its end into the frame buffer; a
// longer MsgModel frame leaves the rest on the socket for decodeFrame to
// read piece by piece.
func (c *Conn) recvBinary(e *Envelope, fresh bool) error {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if _, err := io.ReadFull(c.raw, c.hdr4[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: connection cut mid-length-prefix", errWireFrame)
		}
		return err // clean EOF or a real socket error
	}
	n := int64(binary.LittleEndian.Uint32(c.hdr4[:]))
	if c.maxMsg > 0 && n+4 > c.maxMsg {
		// Exact cap: judged from the declared frame size before a single
		// payload byte is read or allocated.
		return fmt.Errorf("%w (cap %d bytes): %d-byte frame", ErrMessageTooLarge, c.maxMsg, n+4)
	}
	if n < envHeaderBytes {
		return fmt.Errorf("%w: %d-byte payload, header needs %d", errWireFrame, n, envHeaderBytes)
	}
	first := int(min(n, recvPieceBytes))
	if cap(c.recvBuf) < first {
		c.recvBuf = make([]byte, first)
	}
	p := c.recvBuf[:first]
	if m, err := io.ReadFull(c.raw, p); err != nil {
		return cutFrame(int64(m), n, err)
	}
	need := int(n)
	if MsgType(p[0]) == MsgModel {
		need = first
	}
	p = c.frameBuf(p, need)
	if m, err := io.ReadFull(c.raw, p[first:]); err != nil {
		return cutFrame(int64(first+m), n, err)
	}
	return c.decodeFrame(e, p, n-int64(len(p)), fresh)
}

// cutFrame reports a connection that ended m bytes into an n-byte payload.
func cutFrame(m, n int64, err error) error {
	return fmt.Errorf("%w: connection cut %d bytes into a %d-byte payload: %v", errWireFrame, m, n, err)
}

// frameBuf returns the connection's frame buffer at length n, holding the
// bytes of p (a prefix of it). The buffer is reallocated when it is too
// small, and when it has grown past recvPieceBytes and n needs less than a
// quarter of it: the frames of a dense warm-up round do not pin their size
// for the session, and traffic of one size never reallocates.
func (c *Conn) frameBuf(p []byte, n int) []byte {
	if size := cap(c.recvBuf); size >= n && (size <= recvPieceBytes || n >= size/4) {
		return c.recvBuf[:n]
	}
	c.recvBuf = make([]byte, n)
	copy(c.recvBuf, p)
	return c.recvBuf
}

// decodeFrame decodes one frame's payload p. more counts the payload
// bytes past p still on the socket, which only a MsgModel frame leaves
// there (recvBinary); it is 0 for a whole payload.
func (c *Conn) decodeFrame(e *Envelope, p []byte, more int64, fresh bool) error {
	*e = Envelope{
		Type:     MsgType(p[0]),
		ClientID: int(int32(binary.LittleEndian.Uint32(p[2:]))),
		Round:    int(int32(binary.LittleEndian.Uint32(p[6:]))),
	}
	body := p[envHeaderBytes:]
	// fixed reports a body shorter than the type's n fixed-width bytes.
	fixed := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("%w: message type %d body of %d bytes, want at least %d", errWireFrame, e.Type, len(body), n)
		}
		return nil
	}
	switch e.Type {
	case MsgHello:
		if err := fixed(4); err != nil {
			return err
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
		if len(body) > 4 {
			// Multi-session extension: u8 sessionLen | name.
			sl := int(body[4])
			if err := needN(e.Type, body[5:], int64(sl)); err != nil {
				return err
			}
			e.Session = string(body[5 : 5+sl])
		}
	case MsgWelcome, MsgAsyncPull:
		return needN(e.Type, body, 0)
	case MsgScore:
		if err := needN(e.Type, body, 8); err != nil {
			return err
		}
		e.Score = math.Float64frombits(binary.LittleEndian.Uint64(body))
	case MsgSelect:
		if err := fixed(8); err != nil {
			return err
		}
		e.Ratio = math.Float64frombits(binary.LittleEndian.Uint64(body))
		if len(body) > 8 {
			// Negotiated extension: u8 codecLen | name | u32 levels.
			cl := int(body[8])
			if err := needN(e.Type, body[9:], int64(cl)+4); err != nil {
				return err
			}
			e.Codec = string(body[9 : 9+cl])
			e.Levels = int(int32(binary.LittleEndian.Uint32(body[9+cl:])))
			if e.Levels < 0 {
				return fmt.Errorf("%w: select declares %d quantization levels", errWireFrame, e.Levels)
			}
		}
	case MsgShutdown, MsgReroute:
		if err := fixed(4); err != nil {
			return err
		}
		if err := needN(e.Type, body[4:], int64(binary.LittleEndian.Uint32(body))); err != nil {
			return err
		}
		e.Info = string(body[4:])
	case MsgModel:
		if err := fixed(4); err != nil {
			return err
		}
		np := binary.LittleEndian.Uint32(body)
		gsize := int64(len(body)-4) + more - 4*int64(np) // ĝ's section
		if gsize < 0 {
			return fmt.Errorf("%w: %v body of %d bytes holds no %d params", errWireFrame, e.Type, gsize+4*int64(np), np)
		}
		e.Params32 = scratch(fresh, &c.recvParams32, np)
		r := &c.pieces // a per-frame reader would escape to the heap
		*r = pieceReader{raw: c.raw, buf: p, src: body[4:], more: more, n: int64(len(p)) + more}
		for dst := e.Params32; len(dst) > 0; {
			b, err := r.Next(4, len(dst))
			if err != nil {
				return err
			}
			tensor.ReadF32LE(dst[:len(b)/4], b)
			dst = dst[len(b)/4:]
		}
		var idx []int32
		var vals []float64
		if !fresh {
			idx, vals = c.recvIdx, c.recvDelta
		}
		idx, vals, err := compress.ReadSupport(r, gsize, int(np), idx, vals)
		if err != nil {
			return fmt.Errorf("%w: ĝ: %w", errWireFrame, err)
		}
		if !fresh {
			c.recvIdx, c.recvDelta = idx, vals
		}
		e.DeltaIndices, e.GlobalDelta = idx, vals
	case MsgUpdate, MsgAsyncPush:
		sp := c.recvSparse
		if fresh || sp == nil {
			sp = &compress.Sparse{}
		}
		if !fresh {
			c.recvSparse = sp
		}
		if err := sp.DecodeBinaryInto(body); err != nil {
			return fmt.Errorf("%w: %v", errWireFrame, err)
		}
		e.Update = sp
	case MsgPing:
		if err := needN(e.Type, body, 4); err != nil {
			return err
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
	case MsgEdgeHello:
		if err := fixed(8); err != nil {
			return err
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
		if err := needN(e.Type, body[8:], int64(binary.LittleEndian.Uint32(body[4:]))); err != nil {
			return err
		}
		e.Info = string(body[8:])
	case MsgEdgePartial:
		if err := fixed(16); err != nil {
			return err
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
		e.WeightSum = int64(binary.LittleEndian.Uint64(body[4:]))
		np := binary.LittleEndian.Uint32(body[12:])
		if err := needN(e.Type, body[16:], 8*int64(np)); err != nil {
			return err
		}
		e.Params = scratch(fresh, &c.recvParams, np)
		tensor.ReadF64LE(e.Params, body[16:])
	default:
		return fmt.Errorf("%w: unknown message type %d", errWireFrame, p[0])
	}
	return nil
}

// scratch returns a length-n vector: fresh for Recv, the connection's
// buffer for RecvInto. n == 0 yields nil: an absent vector and an empty
// one are the same thing on the wire.
func scratch[T any](fresh bool, buf *[]T, n uint32) []T {
	if n == 0 {
		return nil
	}
	if fresh || cap(*buf) < int(n) {
		v := make([]T, n)
		if !fresh {
			*buf = v
		}
		return v
	}
	return (*buf)[:n]
}

// pieceReader hands out a MsgModel body in whole values: first the bytes
// already in the frame buffer, then pieces read into that same buffer as
// they are needed. For a whole payload (more == 0) it never reads.
type pieceReader struct {
	raw  io.Reader
	buf  []byte // the frame buffer, refilled in place
	src  []byte // bytes in buf not yet handed out
	more int64  // payload bytes still on the socket
	n    int64  // the payload's length, for the cut report
}

// Next returns the next whole values of width bytes, at most limit of
// them and at least one, refilling the buffer when less than one is left.
// The caller has checked that the payload holds every value it asks for.
func (r *pieceReader) Next(width, limit int) ([]byte, error) {
	if len(r.src) < width {
		k := copy(r.buf, r.src) // a value split by the piece boundary moves to the front
		m := int(min(r.more, int64(len(r.buf)-k)))
		if got, err := io.ReadFull(r.raw, r.buf[k:k+m]); err != nil {
			return nil, cutFrame(r.n-r.more+int64(got), r.n, err)
		}
		r.more -= int64(m)
		r.src = r.buf[:k+m]
	}
	k := min(len(r.src)/width, limit) * width
	b := r.src[:k]
	r.src = r.src[k:]
	return b, nil
}

// needN validates a variable-length body section against its declared
// count without letting a corrupt count drive an allocation.
func needN(t MsgType, rest []byte, want int64) error {
	if int64(len(rest)) != want {
		return fmt.Errorf("%w: %v body carries %d bytes, header declares %d", errWireFrame, t, len(rest), want)
	}
	return nil
}

// checkPreamble judges a peer's four opening bytes against the version
// this side speaks.
func checkPreamble(got [4]byte, version byte) error {
	if got != preamble(got[3]) {
		return fmt.Errorf("rpc: peer opened with % x, not the wire preamble", got)
	}
	if got[3] != version {
		return fmt.Errorf("%w: this side speaks v%d, the peer v%d", ErrWireVersion, version, got[3])
	}
	return nil
}

// Accept admits a freshly accepted connection: under helloTimeout it reads
// the preamble, answers it, and reads the peer's first frame, which must
// be of type want (MsgHello or MsgEdgeHello) and fit maxHelloBytes. On
// success the deadline is cleared and the connection lifted to
// DefaultMaxMessageBytes; on any error raw is closed. This is the one way
// into every listener; a caller that injects faults wraps raw first.
func Accept(raw net.Conn, want MsgType) (conn *Conn, hello *Envelope, err error) {
	defer func() {
		if err != nil {
			raw.Close()
		}
	}()
	raw.SetDeadline(time.Now().Add(helloTimeout))
	var open [4]byte
	if _, err := io.ReadFull(raw, open[:]); err != nil {
		return nil, nil, err
	}
	err = checkPreamble(open, wireVersion)
	if err == nil || errors.Is(err, ErrWireVersion) {
		// A dialer of another version is answered too, so that it can say
		// which version it met instead of seeing a dead server.
		answer := preamble(wireVersion)
		if _, werr := raw.Write(answer[:]); err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	conn = NewBinaryConn(raw, nil)
	conn.SetMaxMessage(maxHelloBytes)
	if hello, err = conn.Recv(); err != nil {
		return nil, nil, err
	}
	if hello.Type != want {
		return nil, nil, fmt.Errorf("rpc: first frame has message type %d, want %d", hello.Type, want)
	}
	conn.SetMaxMessage(DefaultMaxMessageBytes)
	raw.SetDeadline(time.Time{})
	return conn, hello, nil
}

// Dial connects to network/addr and runs the dialer's half of the
// handshake: preamble out, the listener's preamble back. timeout bounds
// the dial and the handshake each (0 means 10s).
func Dial(network, addr string, timeout time.Duration) (*Conn, error) {
	return dial(network, addr, timeout, nil, nil, nil)
}

// dial is Dial on a client's link and fault events (wrapFault).
func dial(network, addr string, timeout time.Duration, f *FaultConfig, link *pacer, rng *stats.RNG) (*Conn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	raw, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	raw = wrapFault(raw, f, link, rng)
	raw.SetDeadline(time.Now().Add(timeout))
	var ack [4]byte
	if _, err = raw.Write(wirePreamble[:]); err == nil {
		if _, err = io.ReadFull(raw, ack[:]); err == nil {
			err = checkPreamble(ack, wirePreamble[3])
		}
	}
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("handshake with %s: %w", addr, err)
	}
	raw.SetDeadline(time.Time{})
	return NewBinaryConn(raw, nil), nil
}
