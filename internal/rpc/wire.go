package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"adafl/internal/compress"
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
//	  Model     u32 LE nParams | u32 LE nDelta | nParams × f64 | nDelta × f64
//	  Ping      i32 LE numSamples (progress count)
//	  EdgeHello i32 LE numSamples | u32 LE len | info | u32 LE len | region
//	  EdgePartial i32 LE numSamples | f64 LE weightSum | u32 LE n | n × f64
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
const wireVersion = 2

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
// 255-byte session name, or an EdgeHello with an address and a region):
// a peer that has not said who it is gets no more allocated on its word.
const maxHelloBytes = 4 << 10

// envHeaderBytes is the fixed payload prefix: type, flags, clientID, round.
const envHeaderBytes = 10

// wireChunkBytes sizes the per-connection scratch used to convert float
// runs to wire bytes in bounded pieces. Streaming through the chunk (and
// bufio) instead of materialising whole frames keeps a connection's
// steady-state memory at a few KB even when broadcasting multi-MB models.
const wireChunkBytes = 4096

// defaultWireBufSize is the send-side bufio buffer of a binary Conn.
const defaultWireBufSize = 32 << 10

// errWireFrame marks structurally invalid binary frames (truncation,
// length/body mismatch, unknown message type).
var errWireFrame = fmt.Errorf("rpc: malformed binary frame")

// wirePayloadSize returns the exact encoded payload length of e.
func (e *Envelope) wirePayloadSize() (int, error) {
	n := envHeaderBytes
	switch e.Type {
	case MsgHello:
		n += 4
		if e.Session != "" {
			// Multi-session extension: u8 sessionLen | name. An empty
			// session keeps the legacy 4-byte body so pre-session decoders
			// still accept the frame.
			if len(e.Session) > 255 {
				return 0, fmt.Errorf("rpc: send hello with %d-byte session name", len(e.Session))
			}
			n += 1 + len(e.Session)
		}
	case MsgWelcome, MsgAsyncPull:
	case MsgScore:
		n += 8
	case MsgSelect:
		n += 8
		if e.Codec != "" || e.Levels != 0 {
			// Negotiated extension: u8 codecLen | name | u32 levels. A
			// zero-valued assignment keeps the legacy 8-byte body so
			// pre-negotiation decoders still accept the frame.
			if len(e.Codec) > 255 {
				return 0, fmt.Errorf("rpc: send select with %d-byte codec name", len(e.Codec))
			}
			n += 1 + len(e.Codec) + 4
		}
	case MsgShutdown, MsgReroute:
		n += 4 + len(e.Info)
	case MsgModel:
		n += 8 + 8*(len(e.Params)+len(e.GlobalDelta))
	case MsgUpdate, MsgAsyncPush:
		if e.Update == nil {
			return 0, fmt.Errorf("rpc: send message type %d without payload", e.Type)
		}
		n += e.Update.BinaryWireSize()
	case MsgPing:
		n += 4
	case MsgEdgeHello:
		n += 4 + 4 + len(e.Info) + 4 + len(e.Region)
	case MsgEdgePartial:
		n += 4 + 8 + 4 + 8*len(e.Params)
	default:
		return 0, fmt.Errorf("rpc: send unknown message type %v", e.Type)
	}
	return n, nil
}

// sendBinary writes one length-prefixed binary frame. Steady-state sends
// of every message type are allocation-free: the frame header, scalar and
// string bodies go through the connection's header scratch, float runs
// stream through the chunk scratch, and bufio batches the socket writes.
func (c *Conn) sendBinary(e *Envelope) error {
	if (e.Type == MsgUpdate || e.Type == MsgAsyncPush) && e.Update != nil {
		// The sparse encoder decides its layout once per frame and reports
		// the section's size before its first byte, which is where the
		// length prefix goes: no second scan of the update to size it.
		if err := e.Update.EncodeBinaryTo(c.bw, c.chunk, func(size int) error {
			return c.writeFrameHead(e, envHeaderBytes+size)
		}); err != nil {
			return err
		}
		return c.bw.Flush()
	}
	size, err := e.wirePayloadSize()
	if err != nil {
		return err
	}
	if err := c.writeFrameHead(e, size); err != nil {
		return err
	}
	switch e.Type {
	case MsgModel:
		if err := c.writeF64s(e.Params); err != nil {
			return err
		}
		if err := c.writeF64s(e.GlobalDelta); err != nil {
			return err
		}
	case MsgEdgePartial:
		if err := c.writeF64s(e.Params); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// writeFrameHead writes appendFrameHead's bytes through the connection's
// header scratch.
func (c *Conn) writeFrameHead(e *Envelope, size int) error {
	h := appendFrameHead(c.sendHdr[:0], e, size)
	c.sendHdr = h[:0] // keep any growth for the next send
	_, err := c.bw.Write(h)
	return err
}

// appendFrameHead appends the length prefix (size is the payload length),
// the envelope header and the type's body up to its float vectors or
// sparse section: the whole frame, for a message that has neither.
func appendFrameHead(h []byte, e *Envelope, size int) []byte {
	h = binary.LittleEndian.AppendUint32(h, uint32(size))
	h = append(h, byte(e.Type), 0)
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.ClientID)))
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.Round)))
	switch e.Type {
	case MsgHello:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		if e.Session != "" {
			h = append(h, byte(len(e.Session)))
			h = append(h, e.Session...)
		}
	case MsgScore:
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(e.Score))
	case MsgSelect:
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(e.Ratio))
		if e.Codec != "" || e.Levels != 0 {
			h = append(h, byte(len(e.Codec)))
			h = append(h, e.Codec...)
			h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.Levels)))
		}
	case MsgShutdown, MsgReroute:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
		h = append(h, e.Info...)
	case MsgModel:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Params)))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.GlobalDelta)))
	case MsgPing:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
	case MsgEdgeHello:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
		h = append(h, e.Info...)
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Region)))
		h = append(h, e.Region...)
	case MsgEdgePartial:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(e.WeightSum))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Params)))
	}
	return h
}

// writeF64s streams vals through the chunk scratch.
func (c *Conn) writeF64s(vals []float64) error {
	for off := 0; off < len(vals); {
		n := len(vals) - off
		if m := len(c.chunk) / 8; n > m {
			n = m
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(c.chunk[8*i:], math.Float64bits(vals[off+i]))
		}
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
	if int64(cap(c.recvBuf)) < n {
		c.recvBuf = make([]byte, n)
	}
	p := c.recvBuf[:n]
	if m, err := io.ReadFull(c.raw, p); err != nil {
		return fmt.Errorf("%w: connection cut %d bytes into a %d-byte payload: %v",
			errWireFrame, m, n, err)
	}
	return c.decodeFrame(e, p, fresh)
}

func (c *Conn) decodeFrame(e *Envelope, p []byte, fresh bool) error {
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
	// f64s returns a length-n vector: fresh for Recv, the connection's
	// scratch for RecvInto. n == 0 yields nil: an absent vector and an
	// empty one are the same thing on the wire.
	f64s := func(scratch *[]float64, n uint32) []float64 {
		if n == 0 {
			return nil
		}
		if fresh || cap(*scratch) < int(n) {
			v := make([]float64, n)
			if !fresh {
				*scratch = v
			}
			return v
		}
		return (*scratch)[:n]
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
		if err := fixed(8); err != nil {
			return err
		}
		np := binary.LittleEndian.Uint32(body)
		nd := binary.LittleEndian.Uint32(body[4:])
		if err := needN(e.Type, body[8:], 8*(int64(np)+int64(nd))); err != nil {
			return err
		}
		e.Params, e.GlobalDelta = f64s(&c.recvParams, np), f64s(&c.recvDelta, nd)
		readF64s(e.Params, body[8:])
		readF64s(e.GlobalDelta, body[8+8*np:])
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
		il := int64(binary.LittleEndian.Uint32(body[4:]))
		rest := body[8:]
		if il > int64(len(rest))-4 {
			return fmt.Errorf("%w: edge-hello declares a %d-byte address in a %d-byte body", errWireFrame, il, len(rest))
		}
		e.Info = string(rest[:il])
		rl := int64(binary.LittleEndian.Uint32(rest[il:]))
		if err := needN(e.Type, rest[il+4:], rl); err != nil {
			return err
		}
		e.Region = string(rest[il+4:])
	case MsgEdgePartial:
		if err := fixed(16); err != nil {
			return err
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
		e.WeightSum = math.Float64frombits(binary.LittleEndian.Uint64(body[4:]))
		np := binary.LittleEndian.Uint32(body[12:])
		if err := needN(e.Type, body[16:], 8*int64(np)); err != nil {
			return err
		}
		e.Params = f64s(&c.recvParams, np)
		readF64s(e.Params, body[16:])
	default:
		return fmt.Errorf("%w: unknown message type %d", errWireFrame, p[0])
	}
	return nil
}

// needN validates a variable-length body section against its declared
// count without letting a corrupt count drive an allocation.
func needN(t MsgType, rest []byte, want int64) error {
	if int64(len(rest)) != want {
		return fmt.Errorf("%w: %v body carries %d bytes, header declares %d", errWireFrame, t, len(rest), want)
	}
	return nil
}

func readF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
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
	return dial(network, addr, timeout, nil, nil)
}

// dial is Dial over a link with injected faults and a shaped uplink
// (either may be nil).
func dial(network, addr string, timeout time.Duration, fault *FaultConfig, throttle *TokenBucket) (*Conn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	raw, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	raw = WrapFault(raw, fault)
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
	return NewBinaryConn(raw, throttle), nil
}
