package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"adafl/internal/compress"
)

// Binary wire protocol (negotiated at connect time; gob is the fallback
// so old peers interoperate — see DESIGN.md §Wire protocol):
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
// and the per-message size cap have no gob-bufio slack (the caveat the
// gob path documents in protocol.go).
//
// Negotiation: a binary-capable client opens with the 4-byte preamble
// {0xAD, 0xF1, 0x77, version}. A gob stream can never begin with 0xAD
// (gob's first byte is a message byte count: < 0x80 for small counts or
// >= 0xF8 for the negated-length marker), so the server distinguishes the
// codecs from the first byte alone. A binary-accepting server consumes
// the preamble and echoes it as the acknowledgement; a gob-only server
// (or a pre-binary build) treats the preamble as a corrupt gob stream and
// drops the connection, and the client redials speaking plain gob.

// Wire codec names (ClientConfig.Wire / ServerConfig.Wire / -wire flag).
const (
	WireBinary = "binary"
	WireGob    = "gob"
)

const (
	wireMagic0 = 0xAD
	wireMagic1 = 0xF1
	wireMagic2 = 0x77
	// wireVersion 2: the sparse section gained the ascending (varint
	// index run) and f32 layouts. A v1 decoder ignores the sflags bits
	// that announce them and would misread the frame, so the two versions
	// decline each other and meet on gob.
	wireVersion = 2
)

// wirePreamble is the client's codec-upgrade request and, echoed back,
// the server's acknowledgement.
var wirePreamble = [4]byte{wireMagic0, wireMagic1, wireMagic2, wireVersion}

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
	case MsgWelcome:
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
	case MsgShutdown:
		n += 4 + len(e.Info)
	case MsgModel:
		n += 8 + 8*(len(e.Params)+len(e.GlobalDelta))
	case MsgUpdate:
		if e.Update == nil {
			return 0, fmt.Errorf("rpc: send update without payload")
		}
		n += e.Update.BinaryWireSize()
	case MsgPing:
		n += 4
	case MsgEdgeHello:
		n += 4 + 4 + len(e.Info) + 4 + len(e.Region)
	case MsgEdgePartial:
		n += 4 + 8 + 4 + 8*len(e.Params)
	case MsgReroute:
		n += 4 + len(e.Info)
	case MsgAsyncPull:
	case MsgAsyncPush:
		if e.Update == nil {
			return 0, fmt.Errorf("rpc: send async push without payload")
		}
		n += e.Update.BinaryWireSize()
	default:
		return 0, fmt.Errorf("rpc: send unknown message type %v", e.Type)
	}
	return n, nil
}

// sendBinary writes one length-prefixed binary frame. Steady-state sends
// of every message type are allocation-free: the frame header and scalar
// bodies go through the connection's fixed header scratch, float runs
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
	case MsgShutdown:
		if _, err := c.bw.WriteString(e.Info); err != nil {
			return err
		}
	case MsgModel:
		if err := c.writeF64s(e.Params); err != nil {
			return err
		}
		if err := c.writeF64s(e.GlobalDelta); err != nil {
			return err
		}
	case MsgEdgeHello:
		if _, err := c.bw.WriteString(e.Info); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(c.chunk, uint32(len(e.Region)))
		if _, err := c.bw.Write(c.chunk[:4]); err != nil {
			return err
		}
		if _, err := c.bw.WriteString(e.Region); err != nil {
			return err
		}
	case MsgEdgePartial:
		if err := c.writeF64s(e.Params); err != nil {
			return err
		}
	case MsgReroute:
		if _, err := c.bw.WriteString(e.Info); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// writeFrameHead writes the length prefix (size is the payload length),
// the envelope header and the type's fixed-width body fields.
func (c *Conn) writeFrameHead(e *Envelope, size int) error {
	h := c.sendHdr[:0]
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
	case MsgShutdown:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
	case MsgModel:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Params)))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.GlobalDelta)))
	case MsgPing:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
	case MsgEdgeHello:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
	case MsgEdgePartial:
		h = binary.LittleEndian.AppendUint32(h, uint32(int32(e.NumSamples)))
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(e.WeightSum))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Params)))
	case MsgReroute:
		h = binary.LittleEndian.AppendUint32(h, uint32(len(e.Info)))
	}
	c.sendHdr = h[:0] // keep any growth for the next send
	_, err := c.bw.Write(h)
	return err
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
	if _, err := io.ReadFull(c.cr, c.hdr4[:]); err != nil {
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
	if m, err := io.ReadFull(c.cr, p); err != nil {
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
	need := func(n int) error {
		if len(body) != n {
			return fmt.Errorf("%w: %v body of %d bytes, want %d", errWireFrame, e.Type, len(body), n)
		}
		return nil
	}
	switch e.Type {
	case MsgHello:
		if len(body) < 4 {
			return fmt.Errorf("%w: hello body of %d bytes", errWireFrame, len(body))
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
	case MsgWelcome:
		return need(0)
	case MsgScore:
		if err := need(8); err != nil {
			return err
		}
		e.Score = math.Float64frombits(binary.LittleEndian.Uint64(body))
	case MsgSelect:
		if len(body) < 8 {
			return fmt.Errorf("%w: select body of %d bytes", errWireFrame, len(body))
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
	case MsgShutdown:
		if len(body) < 4 {
			return fmt.Errorf("%w: shutdown body of %d bytes", errWireFrame, len(body))
		}
		l := binary.LittleEndian.Uint32(body)
		if err := needN(e.Type, body[4:], int64(l)); err != nil {
			return err
		}
		e.Info = string(body[4 : 4+l])
	case MsgModel:
		if len(body) < 8 {
			return fmt.Errorf("%w: model body of %d bytes", errWireFrame, len(body))
		}
		np := binary.LittleEndian.Uint32(body)
		nd := binary.LittleEndian.Uint32(body[4:])
		if err := needN(e.Type, body[8:], 8*(int64(np)+int64(nd))); err != nil {
			return err
		}
		rest := body[8:]
		if fresh {
			e.Params = makeF64s(nil, int(np))
			e.GlobalDelta = makeF64s(nil, int(nd))
		} else {
			c.recvParams = makeF64s(c.recvParams, int(np))
			c.recvDelta = makeF64s(c.recvDelta, int(nd))
			e.Params, e.GlobalDelta = c.recvParams, c.recvDelta
		}
		readF64s(e.Params, rest)
		readF64s(e.GlobalDelta, rest[8*np:])
	case MsgUpdate:
		var sp *compress.Sparse
		if fresh {
			sp = &compress.Sparse{}
		} else {
			if c.recvSparse == nil {
				c.recvSparse = &compress.Sparse{}
			}
			sp = c.recvSparse
		}
		if err := sp.DecodeBinaryInto(body); err != nil {
			return fmt.Errorf("%w: %v", errWireFrame, err)
		}
		e.Update = sp
	case MsgPing:
		if err := need(4); err != nil {
			return err
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
	case MsgEdgeHello:
		if len(body) < 8 {
			return fmt.Errorf("%w: edge-hello body of %d bytes", errWireFrame, len(body))
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
		il := int64(binary.LittleEndian.Uint32(body[4:]))
		rest := body[8:]
		if il > int64(len(rest))-4 || il < 0 {
			return fmt.Errorf("%w: edge-hello declares a %d-byte address in a %d-byte body", errWireFrame, il, len(rest))
		}
		e.Info = string(rest[:il])
		rl := int64(binary.LittleEndian.Uint32(rest[il:]))
		if err := needN(e.Type, rest[il+4:], rl); err != nil {
			return err
		}
		e.Region = string(rest[il+4:])
	case MsgEdgePartial:
		if len(body) < 16 {
			return fmt.Errorf("%w: edge-partial body of %d bytes", errWireFrame, len(body))
		}
		e.NumSamples = int(int32(binary.LittleEndian.Uint32(body)))
		e.WeightSum = math.Float64frombits(binary.LittleEndian.Uint64(body[4:]))
		np := binary.LittleEndian.Uint32(body[12:])
		if err := needN(e.Type, body[16:], 8*int64(np)); err != nil {
			return err
		}
		if fresh {
			e.Params = makeF64s(nil, int(np))
		} else {
			c.recvParams = makeF64s(c.recvParams, int(np))
			e.Params = c.recvParams
		}
		readF64s(e.Params, body[16:])
	case MsgReroute:
		if len(body) < 4 {
			return fmt.Errorf("%w: reroute body of %d bytes", errWireFrame, len(body))
		}
		l := binary.LittleEndian.Uint32(body)
		if err := needN(e.Type, body[4:], int64(l)); err != nil {
			return err
		}
		e.Info = string(body[4 : 4+l])
	case MsgAsyncPull:
		return need(0)
	case MsgAsyncPush:
		var sp *compress.Sparse
		if fresh {
			sp = &compress.Sparse{}
		} else {
			if c.recvSparse == nil {
				c.recvSparse = &compress.Sparse{}
			}
			sp = c.recvSparse
		}
		if err := sp.DecodeBinaryInto(body); err != nil {
			return fmt.Errorf("%w: %v", errWireFrame, err)
		}
		e.Update = sp
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

// makeF64s returns a length-n slice, reusing buf's capacity when it
// suffices. n == 0 preserves nil-ness so binary and gob decodes agree.
func makeF64s(buf []float64, n int) []float64 {
	if n == 0 {
		return nil
	}
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func readF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// clientNegotiate requests the binary codec on a freshly dialed
// connection: preamble out, acknowledgement back. false means the peer
// declined (a gob-only or pre-binary server has, by then, consumed the
// preamble as a corrupt gob stream and dropped the connection), and the
// caller must redial speaking gob.
func clientNegotiate(raw net.Conn, timeout time.Duration) bool {
	if timeout > 0 {
		raw.SetDeadline(time.Now().Add(timeout))
		defer raw.SetDeadline(time.Time{})
	}
	if _, err := raw.Write(wirePreamble[:]); err != nil {
		return false
	}
	var ack [4]byte
	if _, err := io.ReadFull(raw, ack[:]); err != nil {
		return false
	}
	return ack == wirePreamble
}

// serverNegotiate sniffs a freshly accepted connection and returns a Conn
// speaking the codec the client opened with. The first byte alone decides:
// 0xAD can only start a binary preamble (never a gob stream), anything
// else is replayed into a gob decoder. acceptBinary=false (Wire="gob")
// declines preambles by feeding them to gob — the resulting decode error
// closes the connection and the client falls back.
func serverNegotiate(raw net.Conn, acceptBinary bool) (*Conn, error) {
	var first [1]byte
	if _, err := io.ReadFull(raw, first[:]); err != nil {
		return nil, err
	}
	if first[0] != wireMagic0 || !acceptBinary {
		return NewConn(&prefixConn{Conn: raw, prefix: first[:]}, nil), nil
	}
	var rest [3]byte
	if _, err := io.ReadFull(raw, rest[:]); err != nil {
		return nil, err
	}
	if rest != [3]byte{wireMagic1, wireMagic2, wireVersion} {
		// Unknown preamble version (or garbage): decline by dropping the
		// connection; the client's fallback redial speaks plain gob.
		return nil, fmt.Errorf("rpc: unsupported wire preamble %x%x", first, rest)
	}
	if _, err := raw.Write(wirePreamble[:]); err != nil {
		return nil, err
	}
	return NewBinaryConn(raw, nil), nil
}

// Accept negotiates the codec on a freshly accepted connection under the
// server-side wire policy: "" or WireBinary sniffs the client's opening
// byte and speaks whichever codec it opened with; WireGob declines binary
// preambles so the session runs gob. This is the handshake the federation
// server applies per connection, exported for the edge tier's listeners.
func Accept(raw net.Conn, wire string) (*Conn, error) {
	return serverNegotiate(raw, wire != WireGob)
}

// Dial connects to network/addr and negotiates the codec the way
// RunClient's dial path does: "" or WireBinary requests the binary codec
// and redials speaking gob when the peer declines (the peer consumed the
// preamble as a corrupt gob stream and dropped the connection); WireGob
// skips negotiation. timeout bounds each dial attempt (0 means 10s).
func Dial(network, addr, wire string, timeout time.Duration) (*Conn, error) {
	if wire != "" && wire != WireBinary && wire != WireGob {
		return nil, fmt.Errorf("rpc: unknown wire codec %q (want %q or %q)", wire, WireBinary, WireGob)
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	raw, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	if wire != WireGob {
		if clientNegotiate(raw, timeout) {
			return NewBinaryConn(raw, nil), nil
		}
		raw.Close()
		if raw, err = net.DialTimeout(network, addr, timeout); err != nil {
			return nil, err
		}
	}
	return NewConn(raw, nil), nil
}

// prefixConn replays sniffed bytes ahead of the wrapped connection.
type prefixConn struct {
	net.Conn
	prefix []byte
}

func (p *prefixConn) Read(b []byte) (int, error) {
	if len(p.prefix) > 0 {
		n := copy(b, p.prefix)
		p.prefix = p.prefix[n:]
		return n, nil
	}
	return p.Conn.Read(b)
}
