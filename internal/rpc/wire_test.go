package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// captureConn records writes so a Conn can be used as a frame encoder.
type captureConn struct {
	byteConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// encodeBinaryEnvelope renders e as one binary wire frame.
func encodeBinaryEnvelope(tb testing.TB, e *Envelope) []byte {
	tb.Helper()
	cc := &captureConn{}
	conn := NewBinaryConn(cc, nil)
	if err := conn.Send(e); err != nil {
		tb.Fatalf("encode %v: %v", e.Type, err)
	}
	return cc.buf.Bytes()
}

// repeatReader replays the same bytes forever: an endless stream of
// identical frames for steady-state receive measurements.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// wireFixtures extends the shared fixtures with the binary codec's edge
// cases: nil-vs-empty slices, a dense-identity sparse payload (indices
// omitted on the wire) and an empty shutdown string.
func wireFixtures() []*Envelope {
	fx := fixtureEnvelopes()
	dense := compress.NewSparseDense(make([]float64, 5))
	for i := range dense.Values {
		dense.Values[i] = float64(i) * 0.25
	}
	return append(fx,
		&Envelope{Type: MsgModel, Round: 2, Params: []float64{1, 2, 3}},         // nil GlobalDelta
		&Envelope{Type: MsgUpdate, ClientID: 9, Round: 3, Update: dense},        // dense identity
		&Envelope{Type: MsgUpdate, Round: 1, Update: &compress.Sparse{Dim: 16}}, // empty update
		&Envelope{Type: MsgShutdown},                                            // empty info
		&Envelope{Type: MsgScore, ClientID: -1, Round: 0, Score: math.Inf(1)},   // sentinel id, Inf
		&Envelope{Type: MsgUpdate, Update: &compress.Sparse{Dim: 1 << 20, Indices: []int32{1 << 19}, Values: []float64{-0.5}}},
	)
}

// bitPatternFixtures puts the doubles a lossy codec would change — a NaN
// with a payload, a signalling NaN, −0, the smallest subnormal, ±Inf — in
// every float64 field the vocabulary has, and their float32 counterparts
// in the one float32 field, a model broadcast's params.
func bitPatternFixtures() []*Envelope {
	odd := []float64{
		math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000001),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), 0.1,
	}
	var odd32 []float64
	for _, b := range []uint32{0x7fc00abc, 0xff800001, 0x80000000, 0x00000001, 0x80000001, 0x7f800000, 0xff800000, 0x3dcccccd} {
		odd32 = append(odd32, float64(math.Float32frombits(b)))
	}
	var fx []*Envelope
	for _, v := range odd {
		fx = append(fx,
			&Envelope{Type: MsgScore, Score: v},
			&Envelope{Type: MsgSelect, Ratio: v},
			&Envelope{Type: MsgEdgePartial, WeightSum: int64(math.Float64bits(v)), Params: []float64{v}},
		)
	}
	return append(fx,
		&Envelope{Type: MsgModel, Params: odd32, GlobalDelta: odd},
		&Envelope{Type: MsgEdgePartial, Params: odd},
		// Unsorted indices take the raw layout, ascending ones the varint
		// run; −0 alone is exactly a float32 and takes the 4-byte values.
		&Envelope{Type: MsgUpdate, Update: &compress.Sparse{Dim: 16, Indices: []int32{9, 8, 7, 6, 5, 4, 3, 2}, Values: odd}},
		&Envelope{Type: MsgAsyncPush, Update: &compress.Sparse{Dim: 16, Indices: []int32{2, 3, 4, 5, 6, 7, 8, 9}, Values: odd}},
		&Envelope{Type: MsgUpdate, Update: &compress.Sparse{Dim: 4, Indices: []int32{1, 3}, Values: []float64{math.Copysign(0, -1), 0.5}}},
	)
}

// sentForm returns a received MsgModel as its sender wrote it: the params
// widened back from the wire's float32, and ĝ scattered back to a dense
// vector (+0 off its support), nil when the section carried no
// coordinate. Any other message is returned as it is.
func sentForm(e *Envelope) *Envelope {
	if e.Type != MsgModel {
		return e
	}
	s := *e
	s.Params, s.Params32, s.GlobalDelta, s.DeltaIndices = nil, nil, nil, nil
	for _, v := range e.Params32 {
		s.Params = append(s.Params, float64(v))
	}
	switch {
	case len(e.GlobalDelta) == 0:
	case e.DeltaIndices == nil:
		s.GlobalDelta = e.GlobalDelta
	default:
		s.GlobalDelta = make([]float64, len(e.Params32))
		for j, i := range e.DeltaIndices {
			s.GlobalDelta[i] = e.GlobalDelta[j]
		}
	}
	return &s
}

// envelopesBitEqual compares two envelopes field by field with every
// float judged by its bit pattern, so a NaN payload, the sign of zero and
// a subnormal all count. A nil slice and an empty one are equal here (the
// scratch receive path reuses its slices); TestWireRoundTripAllTypes pins
// that distinction with reflect.DeepEqual.
func envelopesBitEqual(a, b *Envelope) bool {
	bits := math.Float64bits
	f64s := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if bits(x[i]) != bits(y[i]) {
				return false
			}
		}
		return true
	}
	f32s := func(x, y []float32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.Type != b.Type || a.ClientID != b.ClientID || a.Round != b.Round || a.NumSamples != b.NumSamples ||
		a.Session != b.Session || a.Codec != b.Codec || a.Levels != b.Levels || a.Info != b.Info ||
		bits(a.Score) != bits(b.Score) || bits(a.Ratio) != bits(b.Ratio) || a.WeightSum != b.WeightSum ||
		!f64s(a.Params, b.Params) || !f64s(a.GlobalDelta, b.GlobalDelta) || !f32s(a.Params32, b.Params32) ||
		len(a.DeltaIndices) != len(b.DeltaIndices) || (a.Update == nil) != (b.Update == nil) {
		return false
	}
	for i := range a.DeltaIndices {
		if a.DeltaIndices[i] != b.DeltaIndices[i] {
			return false
		}
	}
	if a.Update == nil {
		return true
	}
	ua, ub := a.Update, b.Update
	if ua.Dim != ub.Dim || ua.QuantBits != ub.QuantBits || ua.QuantLevels != ub.QuantLevels ||
		bits(ua.QuantNorm) != bits(ub.QuantNorm) || len(ua.Indices) != len(ub.Indices) || !f64s(ua.Values, ub.Values) {
		return false
	}
	for i := range ua.Indices {
		if ua.Indices[i] != ub.Indices[i] {
			return false
		}
	}
	return true
}

// wirePayloadSize returns the exact encoded payload length of e: the
// length prefix of its frame head.
func (e *Envelope) wirePayloadSize() (int, error) {
	tail := e.tailSize(new(compress.Support))
	if e.Update != nil && (e.Type == MsgUpdate || e.Type == MsgAsyncPush) {
		tail = e.Update.BinaryWireSize()
	}
	h, err := appendFrameHead(nil, e, tail)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(h)), nil
}

// TestWireRoundTripAllTypes: the codec is lossless, and the reference for
// a lossless codec is the identity. Every message type (all 13) survives
// an encode/decode round trip through a real Conn pair unchanged — nil-
// vs-empty slices included — and every float field comes back with the
// bit pattern it was sent with.
func TestWireRoundTripAllTypes(t *testing.T) {
	roundTrip := func(want *Envelope) *Envelope {
		t.Helper()
		a, b := net.Pipe()
		ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
		defer ca.Close()
		defer cb.Close()
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(want) }()
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("type %v: recv: %v", want.Type, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("type %v: send: %v", want.Type, err)
		}
		return got
	}
	seen := map[MsgType]bool{}
	for _, want := range wireFixtures() {
		seen[want.Type] = true
		got := sentForm(roundTrip(want))
		if !reflect.DeepEqual(got, want) || !envelopesBitEqual(got, want) {
			t.Errorf("type %v round trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	for ty := MsgHello; ty <= MsgAsyncPush; ty++ {
		if !seen[ty] {
			t.Errorf("no fixture for message type %v", ty)
		}
	}
	for _, want := range bitPatternFixtures() {
		if got := sentForm(roundTrip(want)); !envelopesBitEqual(got, want) {
			t.Errorf("type %v changed a float's bits:\n got %+v %+v\nwant %+v %+v", want.Type, got, got.Update, want, want.Update)
		}
	}
}

// TestWireExactByteAccounting pins the binary codec's accounting
// guarantee: both ends count exactly 4 + payload bytes per message — no
// decoder read-ahead, no bufio slack.
func TestWireExactByteAccounting(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	for _, e := range wireFixtures() {
		e := e
		size, err := e.wirePayloadSize()
		if err != nil {
			t.Fatal(err)
		}
		sentBefore, recvBefore := ca.BytesSent(), cb.BytesReceived()
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(e) }()
		if _, err := cb.Recv(); err != nil {
			t.Fatalf("type %v: recv: %v", e.Type, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("type %v: send: %v", e.Type, err)
		}
		want := int64(4 + size)
		if got := ca.BytesSent() - sentBefore; got != want {
			t.Errorf("type %v: sender counted %d bytes, frame is %d", e.Type, got, want)
		}
		if got := cb.BytesReceived() - recvBefore; got != want {
			t.Errorf("type %v: receiver counted %d bytes, frame is %d", e.Type, got, want)
		}
	}
}

// TestWireSizeCapExact: the binary cap is judged from the declared frame
// size (prefix included) before any payload byte is read — a frame of
// exactly the cap passes, one byte over fails, and the oversized frame's
// payload is never pulled off the wire.
func TestWireSizeCapExact(t *testing.T) {
	e := &Envelope{Type: MsgModel, Round: 1, Params: make([]float64, 512)}
	for i := range e.Params {
		e.Params[i] = float64(i)
	}
	raw := encodeBinaryEnvelope(t, e)
	frame := int64(len(raw))

	at := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	at.SetMaxMessage(frame)
	if _, err := at.Recv(); err != nil {
		t.Fatalf("frame of exactly the cap rejected: %v", err)
	}

	over := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	over.SetMaxMessage(frame - 1)
	_, err := over.Recv()
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("cap-1 error = %v, want ErrMessageTooLarge", err)
	}
	if got := over.BytesReceived(); got != 4 {
		t.Fatalf("capped recv consumed %d bytes, want only the 4-byte prefix", got)
	}

	uncapped := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	uncapped.SetMaxMessage(0)
	if _, err := uncapped.Recv(); err != nil {
		t.Fatalf("uncapped conn failed: %v", err)
	}
}

// TestWireTruncationErrors: cut streams produce clean errors (clean EOF
// only at a frame boundary), never panics or hangs.
func TestWireTruncationErrors(t *testing.T) {
	raw := encodeBinaryEnvelope(t, fixtureEnvelopes()[1]) // MsgModel
	cuts := []int{0, 1, 3, 4, 5, envHeaderBytes, len(raw) / 2, len(raw) - 1}
	for _, cut := range cuts {
		c := NewBinaryConn(&byteConn{r: bytes.NewReader(raw[:cut])}, nil)
		_, err := c.Recv()
		if err == nil {
			t.Fatalf("cut at %d of %d decoded successfully", cut, len(raw))
		}
		if cut == 0 && err != io.EOF {
			t.Errorf("empty stream: err = %v, want clean io.EOF", err)
		}
		if cut > 0 && err == io.EOF {
			t.Errorf("cut at %d reported a clean EOF", cut)
		}
	}
	// A complete frame followed by a cut one: first decodes, second errors.
	c := NewBinaryConn(&byteConn{r: bytes.NewReader(append(append([]byte{}, raw...), raw[:7]...))}, nil)
	if _, err := c.Recv(); err != nil {
		t.Fatalf("intact first frame: %v", err)
	}
	if _, err := c.Recv(); err == nil || err == io.EOF {
		t.Fatalf("truncated second frame: err = %v", err)
	}
}

// TestWireNegotiate covers the handshake at the socket level: a dialer of
// this version is admitted, one of another version is declined with
// ErrWireVersion on both ends, and a gob client (a pre-binary build: no
// preamble) is closed without an answer.
func TestWireNegotiate(t *testing.T) {
	type admitted struct {
		conn  *Conn
		hello *Envelope
		err   error
	}
	listen := func(t *testing.T) (net.Listener, chan admitted) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		out := make(chan admitted, 1)
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn, hello, err := Accept(raw, MsgHello)
			out <- admitted{conn, hello, err}
		}()
		return ln, out
	}
	// closed reports whether the peer hung up without sending anything
	// (EOF, or a reset when it left bytes of ours unread).
	closed := func(raw net.Conn) bool {
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := raw.Read(make([]byte, 1))
		return n == 0 && err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
	}

	t.Run("upgrade", func(t *testing.T) {
		ln, out := listen(t)
		cc, err := Dial("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatalf("a listener of the same version declined the preamble: %v", err)
		}
		defer cc.Close()
		if err := cc.Send(&Envelope{Type: MsgHello, ClientID: 4, NumSamples: 77}); err != nil {
			t.Fatal(err)
		}
		got := <-out
		if got.err != nil || got.hello.ClientID != 4 || got.hello.NumSamples != 77 {
			t.Fatalf("admission: %+v, %v", got.hello, got.err)
		}
		defer got.conn.Close()
		// The connection is lifted off the hello cap and the hello
		// deadline: a frame far over maxHelloBytes now passes.
		go cc.Send(&Envelope{Type: MsgUpdate, Update: compress.NewSparseDense(make([]float64, 4*maxHelloBytes))})
		if e, err := got.conn.Recv(); err != nil || e.Type != MsgUpdate {
			t.Fatalf("post-hello exchange: %+v, %v", e, err)
		}
	})

	t.Run("declined", func(t *testing.T) {
		ln, out := listen(t)
		current := wirePreamble
		wirePreamble[3] = wireVersion + 1
		cc, err := Dial("tcp", ln.Addr().String(), time.Second)
		wirePreamble = current
		if cc != nil || !errors.Is(err, ErrWireVersion) ||
			!strings.Contains(err.Error(), fmt.Sprintf("v%d", wireVersion)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("v%d", wireVersion+1)) {
			t.Fatalf("dialer error %v: want ErrWireVersion naming both versions", err)
		}
		if got := <-out; got.conn != nil || !errors.Is(got.err, ErrWireVersion) {
			t.Fatalf("listener admitted %v with error %v, want ErrWireVersion and no Conn", got.conn, got.err)
		}
	})

	t.Run("gob-client", func(t *testing.T) {
		ln, out := listen(t)
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		// What a pre-binary build opens with: a gob stream, whose first
		// byte is a message length, never 0xAD.
		var stream bytes.Buffer
		if err := gob.NewEncoder(&stream).Encode(&Envelope{Type: MsgHello, ClientID: 8, NumSamples: 5}); err != nil {
			t.Fatal(err)
		}
		raw.Write(stream.Bytes()) // the listener may hang up four bytes in
		if got := <-out; got.conn != nil || got.err == nil || errors.Is(got.err, ErrWireVersion) {
			t.Fatalf("listener admitted %v with error %v, want a plain refusal and no Conn", got.conn, got.err)
		}
		if !closed(raw) {
			t.Fatal("listener answered a peer that opened without the preamble")
		}
	})
}

// TestAcceptHelloCap: a peer that has not said hello cannot make the
// listener allocate on its word. The preamble followed by a length prefix
// declaring 64 MB is refused with ErrMessageTooLarge and closed with no
// buffer grown for it, while the largest legitimate first frames — a Hello
// with a 255-byte session name, an EdgeHello with a long address — are
// admitted, and a first frame of the wrong type is not.
func TestAcceptHelloCap(t *testing.T) {
	accept := func(want MsgType, write func(net.Conn)) (*Conn, *Envelope, error) {
		a, b := net.Pipe()
		defer a.Close()
		peer := make(chan struct{})
		go func() {
			defer close(peer)
			a.Write(wirePreamble[:])
			io.ReadFull(a, make([]byte, 4)) // the listener's answer
			write(a)
		}()
		conn, hello, err := Accept(b, want)
		<-peer
		return conn, hello, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, _, err := accept(MsgHello, func(a net.Conn) {
		a.Write(binary.LittleEndian.AppendUint32(nil, DefaultMaxMessageBytes-4))
		if n, err := a.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("listener did not close the connection: read %d, %v", n, err)
		}
	})
	runtime.ReadMemStats(&after)
	if conn != nil || !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("64 MB first frame: conn %v, error %v, want ErrMessageTooLarge and no Conn", conn, err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("refusing the frame allocated %d bytes", grown)
	}

	hello := &Envelope{Type: MsgHello, ClientID: 7, NumSamples: 1 << 20, Session: strings.Repeat("s", 255)}
	edgeHello := &Envelope{Type: MsgEdgeHello, ClientID: 3, NumSamples: 64,
		Info: strings.Repeat("a", 253) + ":65535"}
	for _, want := range []*Envelope{hello, edgeHello} {
		frame := encodeBinaryEnvelope(t, want)
		conn, got, err := accept(want.Type, func(a net.Conn) { a.Write(frame) })
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("maximal %v (%d-byte frame, cap %d): %+v, %v", want.Type, len(frame), maxHelloBytes, got, err)
		}
		if conn.maxMsg != DefaultMaxMessageBytes {
			t.Fatalf("admitted %v connection still capped at %d bytes", want.Type, conn.maxMsg)
		}
	}
	if conn, _, err := accept(MsgEdgeHello, func(a net.Conn) { a.Write(encodeBinaryEnvelope(t, hello)) }); conn != nil || err == nil {
		t.Fatalf("a Hello on the edge listener: conn %v, error %v", conn, err)
	}
}

// versionSession starts a one-client server and runs a client against
// addr (the server's own address when empty) with a generous retry
// budget. It returns the client's outcome and the server's registration
// count, having killed the server.
func versionSession(t *testing.T, addr string) (*ClientResult, float64, error) {
	t.Helper()
	seed := uint64(31)
	ds := dataset.SynthMNIST(200, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 4,
		Cfg: cfg, NewModel: newModel, Test: test, Logf: quiet, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan *ServerResult, 1)
	go func() {
		res, _ := srv.Run()
		ran <- res
	}()
	if addr == "" {
		addr = srv.Addr()
	}
	cres, cerr := RunClient(ClientConfig{
		Addr: addr, ID: 0, Data: train, NewModel: newModel,
		LocalSteps: 2, BatchSize: 16, LR: 0.1, Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
		Seed: seed, Logf: quiet, MaxRetries: 5, RetryBackoff: time.Millisecond,
	})
	srv.Kill()
	if res := <-ran; res != nil && len(res.Rounds) != 0 {
		t.Errorf("server ran %d rounds with no client of its version", len(res.Rounds))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return cres, parseExposition(t, buf.String())["adafl_registrations_total"], cerr
}

// TestWireVersionMismatchRefusedByServer: a client of another wire version
// (its preamble patched, as a build that predates the f32 and varint
// layouts would send) is refused at the handshake, not half-understood.
// There is no fallback: the client returns ErrWireVersion naming both
// versions without spending its retry budget, and the server registers
// nobody and runs no round.
func TestWireVersionMismatchRefusedByServer(t *testing.T) {
	current := wirePreamble
	wirePreamble[3] = wireVersion - 1 // what the client side sends and expects back
	defer func() { wirePreamble = current }()

	cres, registrations, err := versionSession(t, "")
	if !errors.Is(err, ErrWireVersion) ||
		!strings.Contains(err.Error(), fmt.Sprintf("speaks v%d", wireVersion-1)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("peer v%d", wireVersion)) {
		t.Fatalf("client error %v: want ErrWireVersion naming v%d and v%d", err, wireVersion-1, wireVersion)
	}
	if cres.Reconnects != 0 || cres.Rounds != 0 {
		t.Fatalf("client retried a version mismatch: %+v", cres)
	}
	if registrations != 0 {
		t.Fatalf("server registered %v clients of another wire version", registrations)
	}
}

// TestWireVersionMismatchSeenByClient is the other direction: the client
// meets a listener that answers with a newer version (a scripted peer).
// The mismatch reads as what it is, not as a dead server, and is not
// retried.
func TestWireVersionMismatchSeenByClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dials := make(chan int, 1)
	go func() {
		n := 0
		defer func() { dials <- n }()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			n++
			io.ReadFull(raw, make([]byte, 4))
			newer := preamble(wireVersion + 1)
			raw.Write(newer[:])
			raw.Close()
		}
	}()
	cres, _, err := versionSession(t, ln.Addr().String())
	if !errors.Is(err, ErrWireVersion) ||
		!strings.Contains(err.Error(), fmt.Sprintf("speaks v%d", wireVersion)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("peer v%d", wireVersion+1)) {
		t.Fatalf("client error %v: want ErrWireVersion naming v%d and v%d", err, wireVersion, wireVersion+1)
	}
	ln.Close()
	if n := <-dials; n != 1 || cres.Reconnects != 0 {
		t.Fatalf("client dialled a listener of another version %d times (%d reconnects)", n, cres.Reconnects)
	}
}

// allocEnvelopes returns the steady-state hot-path messages at realistic
// sizes: a sparse update and a dense model broadcast.
func allocEnvelopes() (update, model *Envelope) {
	rng := stats.NewRNG(7)
	up := &compress.Sparse{Dim: 8192, Indices: make([]int32, 256), Values: make([]float64, 256)}
	for i := range up.Indices {
		up.Indices[i] = int32(rng.Intn(8192))
		up.Values[i] = rng.NormScaled(0, 0.01)
	}
	params := make([]float64, 2048)
	delta := make([]float64, 2048)
	for i := range params {
		params[i] = rng.NormScaled(0, 1)
		delta[i] = rng.NormScaled(0, 0.01)
	}
	return &Envelope{Type: MsgUpdate, ClientID: 1, Round: 5, Update: up},
		&Envelope{Type: MsgModel, Round: 5, Params: params, GlobalDelta: delta}
}

// TestWireZeroAllocSend pins the tentpole guarantee: steady-state binary
// sends of the hot-path messages allocate nothing.
func TestWireZeroAllocSend(t *testing.T) {
	update, model := allocEnvelopes()
	for _, tc := range []struct {
		name string
		e    *Envelope
	}{{"update", update}, {"model", model}} {
		conn := NewBinaryConn(&byteConn{}, nil)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := conn.Send(tc.e); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("steady-state %s send: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestWireZeroAllocCodecUpdate: the layouts a codec's output takes — the
// varint index run and f32 values of a top-k update, the index-free f32
// run of a warm-up one — are as allocation-free in both directions as the
// raw layout (the send path's size callback included), and the frame
// weighs what WireBytes charges for it, within the header.
func TestWireZeroAllocCodecUpdate(t *testing.T) {
	rng := stats.NewRNG(9)
	grad := make([]float64, 8192)
	for i := range grad {
		grad[i] = rng.NormScaled(0, 0.01)
	}
	for name, ratio := range map[string]float64{"topk": 16, "warmup": 1} {
		e := &Envelope{Type: MsgUpdate, ClientID: 1, Round: 5, Update: (&compress.TopK{}).Encode(grad, ratio)}
		raw := encodeBinaryEnvelope(t, e)
		if size, err := e.wirePayloadSize(); err != nil || len(raw) != 4+size || size > envHeaderBytes+e.Update.WireBytes()+1 {
			t.Fatalf("%s: frame of %d bytes, wirePayloadSize %d (%v), WireBytes %d", name, len(raw), size, err, e.Update.WireBytes())
		}
		send := NewBinaryConn(&byteConn{}, nil)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := send.Send(e); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s send: %v allocs/op, want 0", name, allocs)
		}
		recv := NewBinaryConn(&byteConn{r: &repeatReader{data: raw}}, nil)
		var env Envelope
		if err := recv.RecvInto(&env); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := recv.RecvInto(&env); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s recv: %v allocs/op, want 0", name, allocs)
		}
		if !reflect.DeepEqual(env.Update, e.Update) {
			t.Errorf("%s: scratch decode differs from the update sent", name)
		}
	}
}

// TestWireZeroAllocRecvInto pins the receive side: RecvInto decodes the
// hot-path messages into connection-owned scratch with zero allocations.
func TestWireZeroAllocRecvInto(t *testing.T) {
	update, model := allocEnvelopes()
	for _, tc := range []struct {
		name string
		e    *Envelope
	}{{"update", update}, {"model", model}} {
		raw := encodeBinaryEnvelope(t, tc.e)
		conn := NewBinaryConn(&byteConn{r: &repeatReader{data: raw}}, nil)
		var env Envelope
		// Prime the connection scratch (first decode allocates it).
		if err := conn.RecvInto(&env); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := conn.RecvInto(&env); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("steady-state %s recv: %v allocs/op, want 0", tc.name, allocs)
		}
		// The scratch decode must still be faithful.
		if env.Round != tc.e.Round || env.Type != tc.e.Type {
			t.Errorf("%s scratch decode corrupted: %+v", tc.name, &env)
		}
	}
}

// TestWireConcurrentSendRecv: Send and Recv stay goroutine-safe on a
// binary conn (the server shares one Conn between round goroutines and
// the shutdown path).
func TestWireConcurrentSendRecv(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	const n = 50
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := ca.Send(&Envelope{Type: MsgScore, ClientID: g, Round: i, Score: 0.5}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	got := 0
	for got < 2*n {
		e, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv after %d: %v", got, err)
		}
		if e.Type != MsgScore || e.Score != 0.5 {
			t.Fatalf("interleaved frame corrupted: %+v", e)
		}
		got++
	}
	wg.Wait()
}

// TestWireHelloSessionLegacyInterop pins the multi-session hello
// extension's compatibility contract: an empty session encodes as the
// legacy 4-byte hello body, and a hand-built legacy frame decodes with
// Session == "" — pre-session peers and session-aware peers interoperate
// in both directions.
func TestWireHelloSessionLegacyInterop(t *testing.T) {
	plain := &Envelope{Type: MsgHello, ClientID: 3, NumSamples: 412}
	if size, err := plain.wirePayloadSize(); err != nil || size != envHeaderBytes+4 {
		t.Fatalf("plain hello payload = %d (%v), want legacy %d", size, err, envHeaderBytes+4)
	}
	raw := encodeBinaryEnvelope(t, plain)
	if len(raw) != 4+envHeaderBytes+4 {
		t.Fatalf("plain hello frame is %d bytes, want %d", len(raw), 4+envHeaderBytes+4)
	}

	// A session-bearing hello grows by exactly 1+len(name) bytes and
	// round-trips the name.
	named := &Envelope{Type: MsgHello, ClientID: 3, NumSamples: 412, Session: "line-b"}
	rawNamed := encodeBinaryEnvelope(t, named)
	if want := len(raw) + 1 + len(named.Session); len(rawNamed) != want {
		t.Fatalf("session hello frame is %d bytes, want %d", len(rawNamed), want)
	}

	// Decode the legacy frame through a binary Conn: Session must stay "".
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewBinaryConn(b, nil)
	go a.Write(raw)
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != "" || got.NumSamples != 412 || got.ClientID != 3 {
		t.Fatalf("legacy hello decoded as %+v", got)
	}
}
