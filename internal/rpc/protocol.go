// Package rpc runs AdaFL over real TCP sockets: a federation server and
// client processes exchanging wire messages, a client's socket optionally
// paced on a netsim.Link to emulate a constrained embedded link. It stands
// in for the paper's Raspberry Pi cluster deployment and backs the
// cmd/flserver and cmd/flclient binaries.
//
// One codec crosses a socket: the versioned, length-prefixed binary frame
// of wire.go. A connection opens with a four-byte preamble whose last
// byte is the wire version; peers that disagree on it part with
// ErrWireVersion, and a peer that opens with anything else is closed.
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adafl/internal/compress"
)

// DefaultMaxMessageBytes caps how many wire bytes a single Recv may
// consume. The largest legitimate message is a dense model broadcast or
// update (a few MB for the paper's 431k-parameter CNN); the cap exists
// so a corrupt or malicious length prefix cannot make the decoder
// allocate unbounded memory and OOM the server.
const DefaultMaxMessageBytes = 64 << 20

// ErrMessageTooLarge is returned by Recv when a single message exceeds
// the connection's size cap.
var ErrMessageTooLarge = errors.New("rpc: message exceeds size cap")

// MsgType discriminates protocol messages.
type MsgType int

// Protocol messages, in round order.
const (
	// MsgHello is the client's registration: ID and sample count.
	MsgHello MsgType = iota
	// MsgModel is the server's round broadcast: global parameters and the
	// previous global delta ĝ for utility scoring.
	MsgModel
	// MsgScore is the client's utility report after local training.
	MsgScore
	// MsgSelect tells a client whether to upload and at what compression
	// ratio (Ratio 0 = withhold this round).
	MsgSelect
	// MsgUpdate carries the client's compressed model delta.
	MsgUpdate
	// MsgShutdown ends the session; Info carries a farewell summary.
	MsgShutdown
	// MsgWelcome acknowledges a registration: Round is the next round the
	// client will participate in, so a client redialling into a resumed
	// or in-progress session learns it is joining at round r+1 rather
	// than assuming a fresh session at round 0.
	MsgWelcome
	// MsgPing is an edge's heartbeat to its root, its one sender and its
	// one reader: Round carries the edge's current round and NumSamples
	// its connected-client count. The root answers nothing; every frame
	// re-arms its read deadline, so a silent edge surfaces within the
	// heartbeat timeout. An rpc client echoes one, which only tests send.
	MsgPing
	// MsgEdgeHello registers an edge aggregator with the root: ClientID is
	// the edge ID, Info its client-facing listen address, NumSamples the
	// clients currently connected to it.
	MsgEdgeHello
	// MsgEdgePartial streams an edge's folded round aggregate upstream:
	// ClientID is the edge ID, Params the partial's fixed-point Sum words
	// (each int64's bits in one float64 slot, moved bit for bit),
	// WeightSum the fold weight's word and NumSamples the fold count.
	MsgEdgePartial
	// MsgReroute is the welcome extension a root's client bootstrap sends:
	// Info is the address of the edge the client is assigned to and Round
	// the topology epoch the assignment belongs to. Orphans of a dead edge
	// redial the bootstrap and learn their new edge from it.
	MsgReroute
	// MsgAsyncPull is an async-mode client's model request: no round
	// barrier, the client asks for the current global whenever it is ready
	// to train. The server answers with MsgModel whose Round carries the
	// global model version.
	MsgAsyncPull
	// MsgAsyncPush carries an async-mode client's compressed delta.
	// Round is the model version the client trained from (the server
	// derives staleness as currentVersion − Round); Update is the delta.
	MsgAsyncPush
)

// Envelope is the single wire message type. Only the fields relevant to
// the Type are populated.
type Envelope struct {
	Type     MsgType
	ClientID int
	Round    int

	// MsgHello
	NumSamples int

	// MsgHello (multi-session extension). Session names the control-plane
	// session the client wants to join; "" targets the default session, and
	// encodes as the legacy hello body so pre-session peers interoperate.
	Session string

	// MsgModel. A sender sets Params and ĝ as a dense GlobalDelta (nil in
	// the warm-up). A receiver gets the params at the wire's float32, in
	// Params32, and ĝ as it was sent: GlobalDelta alone when it came
	// dense, or its support, the ascending coordinates DeltaIndices and
	// their values in GlobalDelta, every other coordinate being +0.
	Params       []float64
	Params32     []float32
	GlobalDelta  []float64
	DeltaIndices []int32

	// MsgScore / MsgSelect
	Score float64
	Ratio float64

	// MsgSelect (negotiated codec assignment). Codec names the uplink
	// codec the client must use this round ("" = the client's default);
	// Levels is the quantization level count for level-adaptive codecs
	// (0 = codec default). Both zero-valued fields encode as the legacy
	// 8-byte Select body, so pre-negotiation peers interoperate.
	Codec  string
	Levels int

	// MsgUpdate
	Update *compress.Sparse

	// MsgShutdown / MsgEdgeHello / MsgReroute (an address on the edge
	// messages, a farewell summary on shutdown)
	Info string

	// MsgEdgePartial: the fold weight in shard.Partial's fixed point.
	WeightSum int64
}

// Conn frames envelopes over a net.Conn (wire.go) and counts the bytes.
// Send and Recv are individually goroutine-safe (each direction is
// serialised by its own mutex), so the server's per-client round
// goroutines and a concurrent shutdown path can share one Conn.
type Conn struct {
	raw    *countingConn
	sendMu sync.Mutex
	recvMu sync.Mutex

	// The scratch buffers make steady-state Send and RecvInto
	// allocation-free: frames stream out through sendHdr + chunk + bw, and
	// decoded payloads land in connection-owned slices reused across
	// messages.
	maxMsg  int64
	bw      *bufio.Writer
	sendHdr []byte
	chunk   []byte
	hdr4    [4]byte
	recvBuf []byte

	recvSparse   *compress.Sparse
	recvParams   []float64
	recvParams32 []float32
	recvIdx      []int32
	recvDelta    []float64
	sendDelta    compress.Support
	pieces       pieceReader
}

// NewBinaryConn wraps raw in the frame codec. The handshake is the
// caller's (Dial and Accept do it): the codec itself carries no preamble.
// The receive path is capped at DefaultMaxMessageBytes per message; see
// SetMaxMessage. The second parameter is ignored; it stays until the
// rename ROADMAP item 1 lists drops it with its callers.
func NewBinaryConn(raw net.Conn, _ *FaultConfig) *Conn {
	return newBinaryConn(raw, defaultWireBufSize)
}

// newBinaryConn lets fleet-scale callers shrink the per-connection send
// buffer: 10k simulated clients at the default 32KB would cost 320MB in
// bufio alone.
func newBinaryConn(raw net.Conn, bufSize int) *Conn {
	cc := &countingConn{Conn: raw}
	return &Conn{
		raw:     cc,
		maxMsg:  DefaultMaxMessageBytes,
		bw:      bufio.NewWriterSize(cc, bufSize),
		sendHdr: make([]byte, 0, 4+envHeaderBytes+16),
		chunk:   make([]byte, wireChunkBytes),
	}
}

// A Message is what a Conn sends: an *Envelope, encoded as it is
// written, or a *Frame, encoded once and written as is.
type Message interface{ message() }

func (*Envelope) message() {}
func (*Frame) message()    {}

// Send writes the messages in order and then flushes, so messages that fit
// the send buffer together leave in one Write.
func (c *Conn) Send(ms ...Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.sendLocked(ms)
}

// SendWithin is Send under a write deadline of d, set once this send holds
// the connection: each send gets its own, so none inherits a stale one and
// a concurrent sender's (a heartbeat's, say) cannot cut a long frame short.
// The deadline is left on the socket afterwards.
func (c *Conn) SendWithin(d time.Duration, ms ...Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.raw.SetWriteDeadline(time.Now().Add(d))
	return c.sendLocked(ms)
}

// sendLocked writes each message through the send buffer and flushes it.
// A Frame bigger than the buffer, written when nothing is buffered, goes
// to the socket in one Write without a copy. The messages are switched on
// by type, not called through the interface, so an *Envelope argument
// does not escape and a steady-state Send allocates nothing.
func (c *Conn) sendLocked(ms []Message) error {
	var t MsgType
	for _, m := range ms {
		var err error
		switch m := m.(type) {
		case *Envelope:
			t, err = m.Type, c.writeEnvelope(m)
		case *Frame:
			t = MsgType(m.b[4])
			_, err = c.bw.Write(m.b)
		}
		if err != nil {
			return fmt.Errorf("rpc: send %v: %w", t, err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("rpc: send %v: %w", t, err)
	}
	return nil
}

// Recv reads one envelope. The result is freshly allocated and safe to
// retain. A message whose wire size exceeds the connection's cap
// (SetMaxMessage, DefaultMaxMessageBytes by default) fails with
// ErrMessageTooLarge instead of being materialised.
func (c *Conn) Recv() (*Envelope, error) {
	e := &Envelope{}
	if err := c.recvBinary(e, true); err != nil {
		return nil, err
	}
	return e, nil
}

// RecvInto reads one envelope into e, reusing the connection's decode
// scratch: the slice fields and Update payload are connection-owned and
// valid only until the next RecvInto on this connection. This is the
// zero-allocation receive path; callers that retain payloads across
// messages must use Recv or copy.
func (c *Conn) RecvInto(e *Envelope) error { return c.recvBinary(e, false) }

// SetMaxMessage overrides the per-message receive cap (bytes). n <= 0
// disables the cap entirely. The cap is exact: the declared frame size,
// prefix included, is judged before any payload byte is read.
func (c *Conn) SetMaxMessage(n int64) { c.maxMsg = n }

// SetReadDeadline bounds the next Recv: a blocked read returns an error
// once t passes. The zero time clears the deadline.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// BytesSent and BytesReceived report cumulative wire volume. They are safe
// to read while the connection is in use, and exact per message: framing
// reads exactly the bytes each message declares, with no read-ahead.
func (c *Conn) BytesSent() int64     { return c.raw.sent.Load() }
func (c *Conn) BytesReceived() int64 { return c.raw.received.Load() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// countingConn counts the bytes that cross the socket in each direction.
type countingConn struct {
	net.Conn
	sent, received atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received.Add(int64(n))
	return n, err
}
