package rpc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
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

// TestWireRoundTripAllTypes: every message type survives a binary
// encode/decode round trip through a real Conn pair unchanged, including
// NaN/Inf values and nil-vs-empty slice distinctions.
func TestWireRoundTripAllTypes(t *testing.T) {
	for _, want := range wireFixtures() {
		want := want
		a, b := net.Pipe()
		ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(want) }()
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("type %v: recv: %v", want.Type, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("type %v: send: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("type %v round trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
		}
		ca.Close()
		cb.Close()
	}
}

// TestWireExactByteAccounting pins the binary codec's accounting
// guarantee: both ends count exactly 4 + payload bytes per message — no
// decoder read-ahead, no bufio slack (the documented gob caveat).
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

// TestWireNegotiate covers the connect-time codec handshake at the
// socket level: upgrade accepted, upgrade declined, and a gob client
// against a sniffing server.
func TestWireNegotiate(t *testing.T) {
	listen := func(t *testing.T, acceptBinary bool) (net.Listener, chan *Conn) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		conns := make(chan *Conn, 1)
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conn, err := serverNegotiate(raw, acceptBinary)
			if err != nil {
				raw.Close()
				close(conns)
				return
			}
			conns <- conn
		}()
		return ln, conns
	}

	t.Run("upgrade", func(t *testing.T) {
		ln, conns := listen(t, true)
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if !clientNegotiate(raw, time.Second) {
			t.Fatal("binary-accepting server declined the preamble")
		}
		cc := NewBinaryConn(raw, nil)
		defer cc.Close()
		sc := <-conns
		if sc.Codec() != WireBinary {
			t.Fatalf("server codec %q, want binary", sc.Codec())
		}
		go cc.Send(&Envelope{Type: MsgHello, ClientID: 4, NumSamples: 77})
		e, err := sc.Recv()
		if err != nil || e.Type != MsgHello || e.NumSamples != 77 {
			t.Fatalf("post-upgrade exchange: %+v, %v", e, err)
		}
	})

	t.Run("declined", func(t *testing.T) {
		ln, conns := listen(t, false)
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		// The gob-only server feeds the preamble to its gob decoder, which
		// errors out; here the accept loop then closes the socket, so the
		// client's ack read fails and negotiation reports a decline. The
		// server side runs in a goroutine: serverNegotiate itself blocks
		// until the client's first bytes arrive.
		recvErr := make(chan error, 1)
		go func() {
			sc := <-conns
			_, err := sc.Recv()
			recvErr <- err
			sc.Close()
		}()
		if clientNegotiate(raw, time.Second) {
			t.Fatal("gob-only server accepted the binary preamble")
		}
		if err := <-recvErr; err == nil {
			t.Fatal("gob decoder accepted the binary preamble")
		}
	})

	t.Run("gob-client", func(t *testing.T) {
		ln, conns := listen(t, true)
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cc := NewConn(raw, nil) // plain gob, no preamble
		defer cc.Close()
		go cc.Send(&Envelope{Type: MsgHello, ClientID: 8, NumSamples: 5})
		sc := <-conns
		if sc.Codec() != WireGob {
			t.Fatalf("server codec %q, want gob (sniffed)", sc.Codec())
		}
		// The sniffed first byte is replayed: the hello decodes intact.
		e, err := sc.Recv()
		if err != nil || e.Type != MsgHello || e.ClientID != 8 || e.NumSamples != 5 {
			t.Fatalf("sniffed gob exchange: %+v, %v", e, err)
		}
	})
}

// wireSession runs a deterministic single-client session under the given
// codecs and returns both results plus the server's metrics exposition.
func wireSession(t *testing.T, serverWire, clientWire string) (*ServerResult, *ClientResult, map[string]float64) {
	t.Helper()
	seed := uint64(31)
	ds := dataset.SynthMNIST(200, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 1
	cfg.ScaleRatiosForModel(5000)
	cfg.K = 1

	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 4, Wire: serverWire,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 2, Logf: quiet,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *ClientResult, 1)
	go func() {
		res, err := RunClient(ClientConfig{
			Addr: srv.Addr(), ID: 0, Data: train, NewModel: newModel, Wire: clientWire,
			LocalSteps: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9,
			Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
			DGCClip: 10, DGCMsgClip: 2, Seed: seed,
			Logf: quiet,
		})
		if err != nil {
			t.Errorf("client: %v", err)
		}
		done <- res
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	cres := <-done
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return res, cres, parseExposition(t, buf.String())
}

// TestWireFallbackToGob: a default (binary-requesting) client against a
// gob-only server falls back transparently — the session completes, every
// message is attributed to the gob codec, and the one fallback redial is
// not charged against the retry budget.
func TestWireFallbackToGob(t *testing.T) {
	res, cres, samples := wireSession(t, WireGob, "")
	if len(res.Rounds) != 4 {
		t.Fatalf("fallback session ran %d of 4 rounds", len(res.Rounds))
	}
	if cres == nil || cres.Rounds != 4 {
		t.Fatalf("fallback client saw %+v", cres)
	}
	if cres.Reconnects != 0 {
		t.Fatalf("fallback charged %d reconnects against the retry budget", cres.Reconnects)
	}
	if samples[`adafl_wire_messages_total{codec="gob"}`] <= 0 {
		t.Error("no messages attributed to the gob codec")
	}
	if samples[`adafl_wire_messages_total{codec="binary"}`] != 0 {
		t.Errorf("binary messages on a gob-only server: %v",
			samples[`adafl_wire_messages_total{codec="binary"}`])
	}
	if samples["adafl_connections"] != 0 {
		t.Errorf("adafl_connections = %v after shutdown, want 0", samples["adafl_connections"])
	}
}

// TestWireOldPreambleVersionFallsBackToGob: a client that opens with the
// previous preamble version (a build that predates the f32 and varint
// layouts, and could not decode them) is declined, not half-understood,
// and its session completes over the gob fallback like any other
// declined upgrade.
func TestWireOldPreambleVersionFallsBackToGob(t *testing.T) {
	current := wirePreamble
	wirePreamble[3] = wireVersion - 1 // what the client side sends and expects back
	defer func() { wirePreamble = current }()

	res, cres, samples := wireSession(t, "", "")
	if len(res.Rounds) != 4 || cres == nil || cres.Rounds != 4 {
		t.Fatalf("session ran %d of 4 rounds, client saw %+v", len(res.Rounds), cres)
	}
	if cres.Reconnects != 0 {
		t.Fatalf("fallback charged %d reconnects against the retry budget", cres.Reconnects)
	}
	if samples[`adafl_wire_messages_total{codec="gob"}`] <= 0 {
		t.Error("no messages attributed to the gob codec")
	}
	if n := samples[`adafl_wire_messages_total{codec="binary"}`]; n != 0 {
		t.Errorf("%v binary messages exchanged with a v%d client", n, wireVersion-1)
	}
}

// TestWireGobBinarySessionsBitIdentical: the binary codec must be a pure
// transport change — a deterministic session run over each codec produces
// bit-identical learning trajectories (f64 values survive both codecs
// exactly), differing only in wire volume.
func TestWireGobBinarySessionsBitIdentical(t *testing.T) {
	bin, binClient, binSamples := wireSession(t, "", "")
	gob, gobClient, _ := wireSession(t, WireGob, WireGob)
	if binSamples[`adafl_wire_messages_total{codec="binary"}`] <= 0 {
		t.Fatal("default session did not negotiate the binary codec")
	}
	if len(bin.Rounds) != len(gob.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(bin.Rounds), len(gob.Rounds))
	}
	for i := range bin.Rounds {
		b, g := bin.Rounds[i], gob.Rounds[i]
		if math.Float64bits(b.TestAcc) != math.Float64bits(g.TestAcc) {
			t.Errorf("round %d: acc %v (binary) vs %v (gob)", i, b.TestAcc, g.TestAcc)
		}
		if b.Selected != g.Selected || b.Received != g.Received {
			t.Errorf("round %d: participation differs: %+v vs %+v", i, b, g)
		}
	}
	if math.Float64bits(bin.FinalAcc) != math.Float64bits(gob.FinalAcc) {
		t.Fatalf("final acc differs: %v (binary) vs %v (gob)", bin.FinalAcc, gob.FinalAcc)
	}
	if binClient.Uploads != gobClient.Uploads {
		t.Fatalf("uploads differ: %d vs %d", binClient.Uploads, gobClient.Uploads)
	}
	// The point of the codec: same session, fewer wire bytes.
	if bin.BytesReceived >= gob.BytesReceived {
		t.Errorf("binary uplink %d bytes ≥ gob %d", bin.BytesReceived, gob.BytesReceived)
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

// TestCodecInterop: every message type — including the edge-federation
// vocabulary (ping, edge hello, edge partial, reroute) — decodes to the
// same logical envelope through both codecs. A mixed deployment (binary
// edges, gob fallback clients) must agree on every field either path.
func TestCodecInterop(t *testing.T) {
	roundTrip := func(e *Envelope, mk func(net.Conn, *TokenBucket) *Conn) *Envelope {
		t.Helper()
		a, b := net.Pipe()
		ca, cb := mk(a, nil), mk(b, nil)
		defer ca.Close()
		defer cb.Close()
		errCh := make(chan error, 1)
		go func() { errCh <- ca.Send(e) }()
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("type %v: recv: %v", e.Type, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("type %v: send: %v", e.Type, err)
		}
		return got
	}
	for _, e := range fixtureEnvelopes() {
		viaGob := roundTrip(e, NewConn)
		viaBin := roundTrip(e, NewBinaryConn)
		if !reflect.DeepEqual(viaGob, viaBin) {
			t.Errorf("type %v: codecs disagree:\n gob    %+v\n binary %+v", e.Type, viaGob, viaBin)
		}
		if !reflect.DeepEqual(viaBin, e) {
			t.Errorf("type %v: binary drops information:\n got  %+v\n want %+v", e.Type, viaBin, e)
		}
	}
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
