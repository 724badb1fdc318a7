package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"adafl/internal/compress"
)

// byteConn adapts a byte buffer into a net.Conn so corrupted wire data can
// be fed straight into Conn.Recv. Writes are discarded, deadlines are
// no-ops.
type byteConn struct {
	r io.Reader
}

func (b *byteConn) Read(p []byte) (int, error)       { return b.r.Read(p) }
func (b *byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (b *byteConn) Close() error                     { return nil }
func (b *byteConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (b *byteConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (b *byteConn) SetDeadline(time.Time) error      { return nil }
func (b *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (b *byteConn) SetWriteDeadline(time.Time) error { return nil }

// fixtureEnvelopes covers every message type with its relevant fields
// populated (slices non-empty so gob round-trips them structurally).
func fixtureEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: MsgHello, ClientID: 3, NumSamples: 412},
		{Type: MsgModel, Round: 7, Params: []float64{0.5, -1.25, 3}, GlobalDelta: []float64{1e-3, -2e-3}},
		{Type: MsgScore, ClientID: 2, Round: 7, Score: 0.8125},
		{Type: MsgSelect, Round: 7, Ratio: 12.5},
		{Type: MsgSelect, ClientID: 4, Round: 7, Ratio: 20, Codec: "dadaquant", Levels: 15},
		{Type: MsgUpdate, ClientID: 1, Round: 7, Update: &compress.Sparse{Dim: 8, Indices: []int32{0, 3, 7}, Values: []float64{1, -2, 0.5}}},
		{Type: MsgShutdown, Info: "done: 30 rounds"},
		{Type: MsgWelcome, Round: 4},
		{Type: MsgPing, ClientID: 2, Round: 9, NumSamples: 118},
		{Type: MsgEdgeHello, ClientID: 1, NumSamples: 230, Info: "127.0.0.1:9021", Region: "eu-south"},
		{Type: MsgEdgePartial, ClientID: 1, Round: 9, NumSamples: 230, WeightSum: 230, Params: []float64{0.25, -1.5, 1e-9}},
		{Type: MsgReroute, ClientID: 17, Round: 3, Info: "127.0.0.1:9022"},
		{Type: MsgHello, ClientID: 8, NumSamples: 96, Session: "factory-floor"},
		{Type: MsgAsyncPull, ClientID: 6},
		{Type: MsgAsyncPush, ClientID: 6, Round: 12, Update: &compress.Sparse{Dim: 8, Indices: []int32{1, 6}, Values: []float64{-0.75, 2}}},
	}
}

func encodeEnvelope(tb testing.TB, e *Envelope) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEnvelopeDecode feeds arbitrary (and, via the corpus, subtly
// corrupted/truncated) byte streams into Conn.Recv and requires
// error-not-panic behaviour. This is the exact failure surface the fault
// injector's mid-message cut produces on a live socket.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeEnvelope(f, e)
		f.Add(raw)
		// Truncations: a cut mid-length-prefix, mid-type-descriptor and
		// mid-payload.
		for _, cut := range []int{1, len(raw) / 3, len(raw) - 1} {
			if cut > 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x7f}, 64))
	// A legitimate envelope big enough to trip the capped decode pass
	// below, so the size-cap path is part of the fuzzed surface.
	f.Add(encodeEnvelope(f, &Envelope{Type: MsgModel, Params: make([]float64, 2048)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		c := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		// Decode until the stream errors out; bound the loop so a stream
		// of tiny valid messages cannot spin for long.
		for i := 0; i < 64; i++ {
			if _, err := c.Recv(); err != nil {
				break // error, not panic: exactly what we want
			}
		}
		// Second pass under a tight receive cap: whatever the bytes
		// claim about slice lengths, Recv must error out (never panic,
		// never materialise the allocation) once the cap is hit.
		capped := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
		capped.SetMaxMessage(1 << 12)
		for i := 0; i < 64; i++ {
			if _, err := capped.Recv(); err != nil {
				return
			}
		}
	})
}

// FuzzWireDecode is the binary-codec twin of FuzzEnvelopeDecode: frames
// of every message type — plus truncations, bit flips and hostile length
// prefixes — must decode or error, never panic, never allocate from a
// corrupt declared length, on both the allocating and the scratch-reuse
// receive paths.
func FuzzWireDecode(f *testing.F) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(f, e)
		f.Add(raw)
		// Truncations: mid-length-prefix, mid-header and mid-body.
		for _, cut := range []int{2, 4, 4 + envHeaderBytes/2, len(raw) - 1} {
			if cut > 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
		// A hostile prefix: maximum declared length over a tiny body.
		hostile := append([]byte(nil), raw...)
		hostile[0], hostile[1], hostile[2], hostile[3] = 0xff, 0xff, 0xff, 0xff
		f.Add(hostile)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})             // zero-length payload
	f.Add([]byte{0x0a, 0x00, 0x00, 0x00, 0xff, 0xff}) // bad type, cut header

	// Hostile edge-federation frames: length fields that lie about the
	// body. Offsets: 4-byte frame prefix, 10-byte header, then the typed
	// body (EdgePartial: numSamples@14 weightSum@18 nParams@26 params@30;
	// EdgeHello: numSamples@14 infoLen@18; Reroute: infoLen@14).
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(f, e)
		switch e.Type {
		case MsgEdgePartial:
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[26:], 0xffffffff) // declared params >> body
			f.Add(mut)
			f.Add(raw[:len(raw)-5]) // truncated mid-params
		case MsgEdgeHello:
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[18:], 0x7fffffff) // info length lies
			f.Add(mut)
			f.Add(raw[:len(raw)-2]) // truncated mid-region
		case MsgReroute:
			mut := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[14:], 0xfffffff0) // address length lies
			f.Add(mut)
		case MsgSelect:
			if e.Codec == "" {
				continue
			}
			// Hostile negotiation frames (ratio@14, codecLen@22,
			// levels after the name): a codec length that lies about
			// the body, a NaN ratio, and out-of-range level counts.
			mut := append([]byte(nil), raw...)
			mut[22] = 0xff // declared codec name overruns the body
			f.Add(mut)
			mut = append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(mut[14:], math.Float64bits(math.NaN()))
			f.Add(mut)
			mut = append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[23+len(e.Codec):], 0xffffffff) // negative levels
			f.Add(mut)
			mut = append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(mut[23+len(e.Codec):], 0x7fffffff) // absurd levels
			f.Add(mut)
		}
	}

	// One update frame per sparse layout the fixtures above do not reach
	// (theirs are ascending + f32): raw + f64, dense + f32, ascending + f64
	// with a multi-byte gap, quantized + ascending; each also cut one byte
	// past its sparse header.
	for _, u := range []*compress.Sparse{
		{Dim: 8, Indices: []int32{7, 3, 3}, Values: []float64{0.1, -0.2, 0.3}},
		compress.Identity{}.Encode([]float64{0.5, -1.25, 3, 1e-3}, 1),
		{Dim: 1 << 20, Indices: []int32{5, 1 << 15, 1 << 19}, Values: []float64{0.1, -0.2, 0.3}},
		{Dim: 64, Indices: []int32{2, 40}, Values: []float64{0.5, -1}, QuantBits: 3, QuantLevels: 2, QuantNorm: 1},
	} {
		raw := encodeBinaryEnvelope(f, &Envelope{Type: MsgUpdate, ClientID: 2, Round: 7, Update: u})
		f.Add(raw)
		f.Add(raw[:4+envHeaderBytes+10])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		c := NewBinaryConn(&byteConn{r: bytes.NewReader(data)}, nil)
		for i := 0; i < 64; i++ {
			e, err := c.Recv()
			if err != nil {
				break // error, not panic
			}
			// Invariants a successful decode must uphold.
			if e.Update != nil && len(e.Update.Indices) != len(e.Update.Values) {
				t.Fatalf("decoded sparse with %d indices, %d values", len(e.Update.Indices), len(e.Update.Values))
			}
		}
		// Scratch-reuse path: same stream through RecvInto.
		into := NewBinaryConn(&byteConn{r: bytes.NewReader(data)}, nil)
		var env Envelope
		for i := 0; i < 64; i++ {
			if err := into.RecvInto(&env); err != nil {
				break
			}
		}
		// Tight cap: the declared frame size must be judged before any
		// allocation or payload read.
		capped := NewBinaryConn(&byteConn{r: bytes.NewReader(data)}, nil)
		capped.SetMaxMessage(1 << 12)
		for i := 0; i < 64; i++ {
			if _, err := capped.Recv(); err != nil {
				return
			}
		}
	})
}

// TestConnRecvSizeCap locks in the OOM guard: a well-formed envelope
// whose wire size exceeds the cap must fail with ErrMessageTooLarge,
// while the same bytes decode fine under the default cap.
func TestConnRecvSizeCap(t *testing.T) {
	big := &Envelope{Type: MsgModel, Round: 1, Params: make([]float64, 4096)}
	for i := range big.Params {
		big.Params[i] = float64(i)
	}
	raw := encodeEnvelope(t, big)

	ok := NewConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	if _, err := ok.Recv(); err != nil {
		t.Fatalf("default cap rejected a %d-byte model broadcast: %v", len(raw), err)
	}

	capped := NewConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	capped.SetMaxMessage(1 << 10)
	_, err := capped.Recv()
	if err == nil {
		t.Fatal("oversized message decoded despite cap")
	}
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("cap violation error %v does not wrap ErrMessageTooLarge", err)
	}

	// Cap disabled: decodes again.
	uncapped := NewConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	uncapped.SetMaxMessage(0)
	if _, err := uncapped.Recv(); err != nil {
		t.Fatalf("uncapped conn failed: %v", err)
	}
}

// TestEnvelopeRoundTripAllTypes is the property test companion to the
// fuzzer: every message type survives an encode/decode round trip through
// a real Conn pair unchanged.
func TestEnvelopeRoundTripAllTypes(t *testing.T) {
	for _, want := range fixtureEnvelopes() {
		want := want
		a, b := net.Pipe()
		ca, cb := NewConn(a, nil), NewConn(b, nil)
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

// TestEnvelopeDecodeCorruptedPayloads locks in the fuzz property for a
// deterministic set of corruptions so `go test` (without -fuzz) still
// exercises the surface.
func TestEnvelopeDecodeCorruptedPayloads(t *testing.T) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeEnvelope(t, e)
		corruptions := [][]byte{
			raw[:len(raw)/2], // truncated mid-message
			raw[1:],          // missing first length byte
			append(bytes.Repeat([]byte{0xee}, 7), raw...), // garbage prefix
		}
		// Single-byte flips across the whole message.
		for i := 0; i < len(raw); i += 3 {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 0x55
			corruptions = append(corruptions, mut)
		}
		for _, data := range corruptions {
			c := NewConn(&byteConn{r: bytes.NewReader(data)}, nil)
			for i := 0; i < 64; i++ {
				got, err := c.Recv()
				if err != nil {
					break // error-not-panic
				}
				// A flipped byte may still decode; the result must at
				// least be a finite, well-formed envelope.
				if got.Update != nil && len(got.Update.Indices) != len(got.Update.Values) {
					// Structurally inconsistent sparse payloads must be
					// caught by the consumer; document that they can
					// arrive rather than panic here.
					break
				}
			}
		}
	}
}
