package rpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"adafl/internal/stats"
)

// TestModelFrameBitsPinned pins one paper-size model broadcast: 431 080
// float64 params, off the float32 grid and with the values a narrowing can
// get wrong spliced in (NaN payloads, ±Inf, ±0, values that overflow or
// underflow float32, float32 subnormals), plus a float64 global delta. The
// frame's SHA-256 was taken when the float runs were written one value at
// a time; the received params must be each value rounded to float32 and
// widened back, bit for bit, read from a body that starts at byte 18.
func TestModelFrameBitsPinned(t *testing.T) {
	const want = "8d55f440a5be2273e83205c212b1e81457c5bf880a7261609cc93eca58e28b42"
	r := stats.NewRNG(71)
	params := make([]float64, 431080)
	for i := range params {
		params[i] = r.NormScaled(0, 0.05)
	}
	odd := []float64{
		math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff4000012345678), // NaN payloads
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1e39, -3.5e38, math.MaxFloat32, 3.4028235677973366e38, // overflow, the rounding edge
		1e-46, -1e-50, 0x1p-149, 0x1.8p-150, 1e-40, -1.1754942e-38, // underflow and float32 subnormals
		math.SmallestNonzeroFloat64, 1 + 0x1p-24, 1 + 0x3p-24, // a tie to even each way
	}
	for k, v := range odd {
		params[k*4099+1] = v
	}
	delta := make([]float64, 33)
	for i := range delta {
		delta[i] = r.Norm()
	}
	delta[5] = math.Float64frombits(0x7ff8000000000abc)

	frame := encodeBinaryEnvelope(t, &Envelope{Type: MsgModel, Round: 3, Params: params, GlobalDelta: delta})
	sum := sha256.Sum256(frame)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("MsgModel frame digest %s, want %s", got, want)
	}
	got, err := NewBinaryConn(&byteConn{r: bytes.NewReader(frame)}, nil).Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range params {
		if w := float64(float32(v)); math.Float64bits(got.Params[i]) != math.Float64bits(w) {
			t.Fatalf("param %d: sent %x, received %x, want %x", i, math.Float64bits(v), math.Float64bits(got.Params[i]), math.Float64bits(w))
		}
	}
	for i, v := range delta {
		if math.Float64bits(got.GlobalDelta[i]) != math.Float64bits(v) {
			t.Fatalf("global delta %d: %x, want %x", i, math.Float64bits(got.GlobalDelta[i]), math.Float64bits(v))
		}
	}
}

// TestPullFrameMatchesSend: a model encoded once (ModelFrame, or Set
// into a frame that held another model, as the sync server does each
// round) is the frame Send writes for the same envelope, byte for byte,
// with and without ĝ, empty and at 100 003 params (past the send buffer
// and the chunk). Sent through a Conn the frame leaves in one Write, and
// BytesSent counts exactly its length.
func TestPullFrameMatchesSend(t *testing.T) {
	r := stats.NewRNG(77)
	var reused Frame
	for _, n := range []int{100003, 0, 100003} {
		params := make([]float64, n)
		for i := range params {
			params[i] = r.Norm()
		}
		for _, delta := range [][]float64{nil, params[:n/3]} {
			want := encodeBinaryEnvelope(t, &Envelope{Type: MsgModel, Round: 41, Params: params, GlobalDelta: delta})
			frame := ModelFrame(41, params, delta)
			reused.Set(&Envelope{Type: MsgModel, Round: 41, Params: params, GlobalDelta: delta})
			if !bytes.Equal(frame.b, want) || !bytes.Equal(reused.b, want) {
				t.Fatalf("n=%d ĝ=%d: the once-encoded frame (%d bytes, %d re-encoded) differs from Send's (%d bytes)",
					n, len(delta), len(frame.b), len(reused.b), len(want))
			}
			cc := &captureConn{}
			wc := &writeCounter{Conn: cc}
			conn := NewBinaryConn(wc, nil)
			if err := conn.SendWithin(time.Second, frame); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cc.buf.Bytes(), want) || wc.writes.Load() != 1 || conn.BytesSent() != int64(len(want)) {
				t.Fatalf("n=%d ĝ=%d: sent %d bytes in %d writes, BytesSent %d; want the frame's %d in 1",
					n, len(delta), cc.buf.Len(), wc.writes.Load(), conn.BytesSent(), len(want))
			}
		}
	}
}

// TestEdgePartialFrameOneWrite: an edge's MsgEdgePartial encoded with
// Frame.Set, into a frame that held a larger partial before, is the frame
// Send writes for the envelope, byte for byte, and leaves a Conn in one
// Write — at tree_ingest's dim 20 000 (160 KB, five times the send
// buffer), at a small dim and empty. The slots are fixed-point words, so
// every bit pattern, NaN payloads included, must cross unchanged.
func TestEdgePartialFrameOneWrite(t *testing.T) {
	r := stats.NewRNG(78)
	var up Frame
	for _, dim := range []int{20000, 3, 0, 20000} {
		slots := make([]float64, dim)
		for i := range slots {
			slots[i] = math.Float64frombits(r.Uint64())
		}
		e := &Envelope{Type: MsgEdgePartial, ClientID: 2, Round: 9, NumSamples: 31, WeightSum: -5 << 40, Params: slots}
		want := encodeBinaryEnvelope(t, e)
		cc := &captureConn{}
		wc := &writeCounter{Conn: cc}
		conn := NewBinaryConn(wc, nil)
		if err := conn.SendWithin(time.Second, up.Set(e)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cc.buf.Bytes(), want) || wc.writes.Load() != 1 || conn.BytesSent() != int64(len(want)) {
			t.Fatalf("dim %d: sent %d bytes in %d writes, BytesSent %d; want Send's %d bytes in 1",
				dim, cc.buf.Len(), wc.writes.Load(), conn.BytesSent(), len(want))
		}
	}
}
