package rpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"adafl/internal/stats"
)

// TestModelFrameBitsPinned pins one paper-size model broadcast: 431 080
// float64 params, off the float32 grid and with the values a narrowing can
// get wrong spliced in (NaN payloads, ±Inf, ±0, values that overflow or
// underflow float32, float32 subnormals), with a float64 ĝ that is sparse
// (one coordinate in seven), dense, or empty (the warm-up), the values an
// exact transport must keep — −0, NaN payloads, ±Inf and subnormals — at
// its support. The dense and empty frames' SHA-256 were taken at wire
// version 5, when ĝ became a sparse section; the sparse one's at version
// 6, when its index run became a Rice code (its f64 values, the params
// and the other two frames did not move). The checks beside them are
// independent of the encoder. The received params must be the frame's float32 bits, which
// are each value rounded to float32; ĝ must come back as it was sent — as
// pairs when sparse, as one vector when dense — and scattered back it must
// be the vector sent, bit for bit.
func TestModelFrameBitsPinned(t *testing.T) {
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
	sparse, dense := make([]float64, len(params)), make([]float64, len(params))
	for i := range dense {
		dense[i] = r.Norm() * 1e-3
		if i%7 == 3 {
			sparse[i] = dense[i]
		}
	}
	for k, v := range odd {
		if v != 0 || math.Signbit(v) { // +0 is what a section leaves out
			sparse[k*7*3001+3], dense[k*4099+2] = v, v
		}
	}
	for _, tc := range []struct {
		name, want string
		ghat       []float64
		support    int // coordinates the section carries; -1 for the dense layout
	}{
		{"sparse", "93331ecd9baa91bd1fcebfa0ac98b3db2def8c98ca519f8acdfa4fbdf7089280", sparse, 0},
		{"dense", "e446dd24a7d32bff4230c051e7ef60491bde0c4a4e07cb472c93787f341d84e3", dense, -1},
		{"empty", "a6f81ba4ecccb1acef0ae3948c1dcb3b7f3bc0a6627fdfef1bfc5ed66f920761", nil, 0},
	} {
		if tc.name == "sparse" {
			for _, v := range sparse {
				if math.Float64bits(v) != 0 {
					tc.support++
				}
			}
		}
		frame := encodeBinaryEnvelope(t, &Envelope{Type: MsgModel, Round: 3, Params: params, GlobalDelta: tc.ghat})
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: MsgModel frame digest %s, want %s", tc.name, got, tc.want)
		}
		got, err := NewBinaryConn(&byteConn{r: bytes.NewReader(frame)}, nil).Recv()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := frame[4+envHeaderBytes+4:]
		for i, v := range params {
			b := binary.LittleEndian.Uint32(body[4*i:])
			if w := math.Float32bits(float32(v)); math.Float32bits(got.Params32[i]) != b || b != w {
				t.Fatalf("%s: param %d: sent %x, frame %x, received %x, want %x", tc.name, i,
					math.Float64bits(v), b, math.Float32bits(got.Params32[i]), w)
			}
		}
		switch {
		case tc.support < 0 && (got.DeltaIndices != nil || len(got.GlobalDelta) != len(params)):
			t.Fatalf("%s: ĝ held as %d pairs of %d values, want one dense vector", tc.name, len(got.DeltaIndices), len(got.GlobalDelta))
		case tc.support >= 0 && (len(got.DeltaIndices) != tc.support || len(got.GlobalDelta) != tc.support):
			t.Fatalf("%s: ĝ held as %d indices and %d values, want %d pairs", tc.name, len(got.DeltaIndices), len(got.GlobalDelta), tc.support)
		}
		want := tc.ghat
		if want == nil {
			want = make([]float64, len(params))
		}
		g := sentForm(got).GlobalDelta
		if g == nil {
			g = make([]float64, len(params))
		}
		for i, v := range want {
			if math.Float64bits(g[i]) != math.Float64bits(v) {
				t.Fatalf("%s: ĝ %d: %x, want %x", tc.name, i, math.Float64bits(g[i]), math.Float64bits(v))
			}
		}
	}
}

// TestPullFrameMatchesSend: a model encoded once (ModelFrame, or Set
// into a frame that held another model, as the sync server does each
// round) is the frame Send writes for the same envelope, byte for byte,
// without ĝ and with a sparse and a dense one, empty and at 100 003
// params (past the send buffer and the chunk). Sent through a Conn the
// frame leaves in one Write, and BytesSent counts exactly its length.
func TestPullFrameMatchesSend(t *testing.T) {
	r := stats.NewRNG(77)
	var reused Frame
	for _, n := range []int{100003, 0, 100003} {
		params, sparse := make([]float64, n), make([]float64, n)
		for i := range params {
			params[i] = r.Norm()
			if i%3 == 0 {
				sparse[i] = params[i]
			}
		}
		for _, delta := range [][]float64{nil, sparse, params} {
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
