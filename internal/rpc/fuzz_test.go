package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
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
// populated.
func fixtureEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: MsgHello, ClientID: 3, NumSamples: 412},
		{Type: MsgModel, Round: 7, Params: []float64{0.5, -1.25, 3}, GlobalDelta: []float64{1e-3, 0, -2e-3}},
		{Type: MsgScore, ClientID: 2, Round: 7, Score: 0.8125},
		{Type: MsgSelect, Round: 7, Ratio: 12.5},
		{Type: MsgSelect, ClientID: 4, Round: 7, Ratio: 20, Codec: "dadaquant", Levels: 15},
		{Type: MsgUpdate, ClientID: 1, Round: 7, Update: &compress.Sparse{Dim: 8, Indices: []int32{0, 3, 7}, Values: []float64{1, -2, 0.5}}},
		{Type: MsgShutdown, Info: "done: 30 rounds"},
		{Type: MsgWelcome, Round: 4},
		{Type: MsgPing, ClientID: 2, Round: 9, NumSamples: 118},
		{Type: MsgEdgeHello, ClientID: 1, NumSamples: 230, Info: "127.0.0.1:9021"},
		{Type: MsgEdgePartial, ClientID: 1, Round: 9, NumSamples: 230, WeightSum: 230, Params: []float64{0.25, -1.5, 1e-9}},
		{Type: MsgReroute, ClientID: 17, Round: 3, Info: "127.0.0.1:9022"},
		{Type: MsgHello, ClientID: 8, NumSamples: 96, Session: "factory-floor"},
		{Type: MsgAsyncPull, ClientID: 6},
		{Type: MsgAsyncPush, ClientID: 6, Round: 12, Update: &compress.Sparse{Dim: 8, Indices: []int32{1, 6}, Values: []float64{-0.75, 2}}},
	}
}

// FuzzEnvelopeDecode fuzzes the envelope decoder below the framing: the
// bytes are one frame's payload, handed to decodeFrame as recvBinary would
// after reading the length prefix. Whatever they claim, both receive
// paths must error or decode (never panic), agree with each other, and an
// accepted payload must survive a re-encode: decoding what the decoded
// envelope encodes to yields the same envelope, bit for bit.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, e := range fixtureEnvelopes() {
		payload := encodeBinaryEnvelope(f, e)[4:]
		f.Add(payload)
		// Truncations: mid-header and mid-body.
		for _, cut := range []int{1, len(payload) / 3, len(payload) - 1} {
			if cut > 0 && cut < len(payload) {
				f.Add(payload[:cut])
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x7f}, 64))
	f.Add(encodeBinaryEnvelope(f, &Envelope{Type: MsgModel, Params: make([]float64, 2048)})[4:])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < envHeaderBytes || len(data) > 1<<16 {
			return // recvBinary refuses a payload shorter than the header itself
		}
		c := NewBinaryConn(&byteConn{}, nil)
		var fresh, scratch Envelope
		errFresh := c.decodeFrame(&fresh, data, 0, true)
		errScratch := c.decodeFrame(&scratch, data, 0, false)
		if (errFresh == nil) != (errScratch == nil) {
			t.Fatalf("receive paths disagree: Recv %v, RecvInto %v", errFresh, errScratch)
		}
		if errFresh != nil {
			return
		}
		if !envelopesBitEqual(&fresh, &scratch) {
			t.Fatalf("receive paths decode differently:\n Recv     %+v\n RecvInto %+v", &fresh, &scratch)
		}
		var again Envelope
		if err := c.decodeFrame(&again, encodeBinaryEnvelope(t, sentForm(&fresh))[4:], 0, true); err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", fresh.Type, err)
		}
		if !envelopesBitEqual(sentForm(&fresh), sentForm(&again)) {
			t.Fatalf("re-encode changed the envelope:\n first  %+v\n second %+v", &fresh, &again)
		}
	})
}

// FuzzWireDecode feeds arbitrary (and, via the corpus, subtly corrupted
// or truncated) byte streams into Conn.Recv: frames of every message type
// — plus truncations, bit flips and hostile length prefixes — must decode
// or error, never panic, never allocate from a corrupt declared length, on
// both the allocating and the scratch-reuse receive paths. This is the
// exact failure surface the fault injector's mid-message cut produces on
// a live socket.
func FuzzWireDecode(f *testing.F) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(f, e)
		f.Add(raw)
		// Truncations: mid-length-prefix, mid-header and mid-body.
		for _, cut := range []int{1, 2, 4, 4 + envHeaderBytes/2, len(raw) / 3, len(raw) - 1} {
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
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x7f}, 64))
	// A legitimate frame big enough to trip the capped pass below, so the
	// size-cap path is part of the fuzzed surface.
	f.Add(encodeBinaryEnvelope(f, &Envelope{Type: MsgModel, Params: make([]float64, 2048)}))
	// Model frames whose ĝ section is sparse, dense or empty, and ones
	// whose section is hostile (modelDeltaFrames).
	for _, raw := range modelDeltaFrames(f) {
		f.Add(raw)
	}

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
			f.Add(raw[:len(raw)-2]) // truncated mid-address
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
	// with a multi-byte gap, quantized + ascending, and dense and
	// ascending f32 ones whose byte planes code; each also cut one byte
	// past its sparse header and halfway.
	coded := make([]float64, 3000)
	for i := range coded {
		coded[i] = float64(float32(0.01 * float64(i%97-48)))
	}
	for _, u := range []*compress.Sparse{
		{Dim: 8, Indices: []int32{7, 3, 3}, Values: []float64{0.1, -0.2, 0.3}},
		compress.Identity{}.Encode([]float64{0.5, -1.25, 3, 1e-3}, 1),
		{Dim: 1 << 20, Indices: []int32{5, 1 << 15, 1 << 19}, Values: []float64{0.1, -0.2, 0.3}},
		{Dim: 64, Indices: []int32{2, 40}, Values: []float64{0.5, -1}, QuantBits: 3, QuantLevels: 2, QuantNorm: 1},
		compress.Identity{}.Encode(coded, 1),
		compress.SelectTopK(coded, 1200),
	} {
		raw := encodeBinaryEnvelope(f, &Envelope{Type: MsgUpdate, ClientID: 2, Round: 7, Update: u})
		f.Add(raw)
		f.Add(raw[:4+envHeaderBytes+10])
		f.Add(raw[:len(raw)/2])
	}

	// A model frame past recvPieceBytes, read piece by piece: whole, cut
	// at and around the piece boundary and inside the delta run, and with
	// nParams or nDelta lying about the length.
	big := encodeBinaryEnvelope(f, bigModelEnvelope(20000, 300, 1))
	f.Add(big)
	for _, cut := range []int{4 + recvPieceBytes - 1, 4 + recvPieceBytes, 4 + recvPieceBytes + 1, len(big) - 5} {
		f.Add(big[:cut])
	}
	for _, off := range []int{4 + envHeaderBytes, 4 + envHeaderBytes + 4} {
		for _, v := range []uint32{19999, 20001, 0xffffffff} {
			mut := append([]byte(nil), big...)
			binary.LittleEndian.PutUint32(mut[off:], v)
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
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

// TestConnRecvSizeCap locks in the OOM guard on the scratch receive path:
// a well-formed frame over the cap fails with ErrMessageTooLarge before
// the connection's receive buffer is grown for it, while the same bytes
// decode under the default cap and with the cap disabled.
func TestConnRecvSizeCap(t *testing.T) {
	big := &Envelope{Type: MsgModel, Round: 1, Params: make([]float64, 4096)}
	for i := range big.Params {
		big.Params[i] = float64(i)
	}
	raw := encodeBinaryEnvelope(t, big)
	var env Envelope

	ok := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	if err := ok.RecvInto(&env); err != nil {
		t.Fatalf("default cap rejected a %d-byte model broadcast: %v", len(raw), err)
	}

	capped := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	capped.SetMaxMessage(1 << 10)
	if err := capped.RecvInto(&env); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("cap violation error %v does not wrap ErrMessageTooLarge", err)
	}
	if cap(capped.recvBuf) != 0 {
		t.Fatalf("receive buffer grown to %d bytes for a refused frame", cap(capped.recvBuf))
	}

	uncapped := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
	uncapped.SetMaxMessage(0)
	if err := uncapped.RecvInto(&env); err != nil {
		t.Fatalf("uncapped conn failed: %v", err)
	}
}

// modelDeltaFrames returns MsgModel frames of 16 params whose ĝ section
// is well formed — sparse with −0 and a NaN payload at its support, dense,
// empty — and, after them, hostile: indices unsorted, repeated or out of
// range, nnz over dim, a dim other than the params', a dense section one
// coordinate short, and a section longer or shorter than its count says.
func modelDeltaFrames(tb testing.TB) (frames [][]byte) {
	const dim = 16
	params := make([]float64, dim)
	sparse, dense := make([]float64, dim), make([]float64, dim)
	for i := range params {
		params[i], dense[i] = float64(i)/8, float64(i)+0.5
	}
	sparse[3], sparse[9], sparse[15] = math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc), 2.5
	for _, g := range [][]float64{sparse, dense, nil} {
		frames = append(frames, encodeBinaryEnvelope(tb, &Envelope{Type: MsgModel, Round: 2, Params: params, GlobalDelta: g}))
	}
	// Float32 ĝs whose byte planes code, dense and one coordinate in
	// three (a Rice run).
	wide := make([]float64, 4000)
	f32dense, f32sparse := make([]float64, len(wide)), make([]float64, len(wide))
	for i := range wide {
		f32dense[i] = float64(float32(i%5) / 8)
		if i%3 == 0 {
			f32sparse[i] = float64(float32(i%7) - 3.5)
		}
	}
	for _, g := range [][]float64{f32dense, f32sparse} {
		frames = append(frames, encodeBinaryEnvelope(tb, &Envelope{Type: MsgModel, Round: 2, Params: wide, GlobalDelta: g}))
	}
	head := encodeBinaryEnvelope(tb, &Envelope{Type: MsgModel, Round: 2, Params: params})
	head = head[:len(head)-9] // the empty section's head
	// A hand-built section: its header, a Rice parameter 0 when it is
	// ascending and four raw planes when it is f32, then rest.
	section := func(d, nnz uint32, flags byte, rest ...uint32) []byte {
		b := append([]byte(nil), head...)
		b = binary.LittleEndian.AppendUint32(b, d)
		b = append(binary.LittleEndian.AppendUint32(b, nnz), flags)
		if flags&4 != 0 {
			b = append(b, 0)
		}
		if flags&8 != 0 {
			b = append(b, 0)
		}
		for _, x := range rest {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
		binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
		return b
	}
	const f32 = 1 << 3
	return append(frames,
		section(dim, 2, f32, 5, 3, 0, 0),   // unsorted
		section(dim, 2, f32, 3, 3, 0, 0),   // repeated
		section(dim, 1, f32, dim, 0),       // out of range
		section(dim, dim+1, 1|f32),         // nnz over dim, dense
		section(dim+1, 1, f32, 0, 0),       // another dim
		section(dim, dim-1, 1|f32),         // dense, a coordinate short
		section(dim, 2, f32, 1, 2, 0),      // a value short
		section(dim, 1, f32, 1, 0, 0),      // a value over
		section(dim, 0xffffffff, 4|f32, 0), // a lying nnz
	)
}

// TestModelFrameHostileDeltaRejected: a model frame whose ĝ section is
// hostile is a malformed frame on both receive paths, never a panic; the
// well-formed ones before them decode.
func TestModelFrameHostileDeltaRejected(t *testing.T) {
	for k, raw := range modelDeltaFrames(t) {
		for _, fresh := range []bool{true, false} {
			c := NewBinaryConn(&byteConn{r: bytes.NewReader(raw)}, nil)
			var err error
			if fresh {
				_, err = c.Recv()
			} else {
				err = c.RecvInto(&Envelope{})
			}
			if ok := k < 5; ok != (err == nil) || !ok && !errors.Is(err, errWireFrame) {
				t.Fatalf("frame %d (fresh %v): err = %v", k, fresh, err)
			}
		}
	}
}

// TestEnvelopeRoundTripAllTypes sends every fixture down one connection
// and reads them all through RecvInto into one envelope: the scratch the
// connection reuses between messages (the sparse payload, the two float
// vectors) must leak nothing from one message type into the next.
func TestEnvelopeRoundTripAllTypes(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	fixtures := wireFixtures()
	errCh := make(chan error, 1)
	go func() {
		for _, e := range fixtures {
			if err := ca.Send(e); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	var got Envelope
	for i, want := range fixtures {
		if err := cb.RecvInto(&got); err != nil {
			t.Fatalf("fixture %d (%v): recv: %v", i, want.Type, err)
		}
		if !envelopesBitEqual(sentForm(&got), want) {
			t.Errorf("fixture %d (%v) mismatch after scratch reuse:\n got %+v\nwant %+v", i, want.Type, &got, want)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("send: %v", err)
	}
}

// TestEnvelopeDecodeCorruptedPayloads locks in the fuzz property for a
// deterministic set of corruptions so `go test` (without -fuzz) still
// exercises the surface.
func TestEnvelopeDecodeCorruptedPayloads(t *testing.T) {
	for _, e := range fixtureEnvelopes() {
		raw := encodeBinaryEnvelope(t, e)
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
			c := NewBinaryConn(&byteConn{r: bytes.NewReader(data)}, nil)
			c.SetMaxMessage(1 << 16) // a flipped length byte must not buy a 64 MB buffer
			for i := 0; i < 64; i++ {
				got, err := c.Recv()
				if err != nil {
					break // error-not-panic
				}
				// A flipped byte may still decode; the sparse decoder
				// never yields mismatched index and value runs.
				if got.Update != nil && len(got.Update.Indices) != len(got.Update.Values) {
					t.Fatalf("type %v: decoded sparse with %d indices, %d values",
						e.Type, len(got.Update.Indices), len(got.Update.Values))
				}
			}
		}
	}
}
