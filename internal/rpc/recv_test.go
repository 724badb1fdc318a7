package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/stats"
)

// bigModelEnvelope is a model broadcast well past recvPieceBytes: np
// params off the float32 grid and a ĝ with nd of its np coordinates set,
// spread evenly (all of them: the dense layout), so values of both runs
// and the index run straddle piece boundaries.
func bigModelEnvelope(np, nd int, seed uint64) *Envelope {
	r := stats.NewRNG(seed)
	e := &Envelope{Type: MsgModel, Round: 4, Params: make([]float64, np), GlobalDelta: make([]float64, np)}
	for i := range e.Params {
		e.Params[i] = r.NormScaled(0, 0.05)
	}
	for k := 0; k < nd; k++ {
		e.GlobalDelta[k*np/nd] = r.Norm() * 1e-3
	}
	return e
}

// decodeWholeModel decodes a MsgModel frame from the one buffer, as its
// sender wrote it (sentForm): the params widened from float32, and the ĝ
// section decoded whole by the update decoder and scattered back.
func decodeWholeModel(t *testing.T, frame []byte) *Envelope {
	t.Helper()
	body := frame[4+envHeaderBytes:]
	np := int(binary.LittleEndian.Uint32(body))
	if len(body) < 4+4*np {
		t.Fatalf("fixture frame: %d body bytes for %d params", len(body), np)
	}
	e := &Envelope{Type: MsgModel, Round: int(int32(binary.LittleEndian.Uint32(frame[10:]))), Params: make([]float64, np)}
	for i := range e.Params {
		e.Params[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4+4*i:])))
	}
	var g compress.Sparse
	if err := g.DecodeBinaryInto(body[4+4*np:]); err != nil || g.Dim != np {
		t.Fatalf("fixture frame: ĝ section of dim %d for %d params: %v", g.Dim, np, err)
	}
	if g.NNZ() > 0 {
		e.GlobalDelta = g.Dense()
	}
	return e
}

// TestModelFramePiecewiseDecode: a MsgModel frame longer than
// recvPieceBytes decodes, through Recv and through RecvInto, bit for bit
// as a whole-frame decode does, and the connection's frame buffer never
// grows past the bound. Three frames in one stream check that a piece
// read never runs into the next frame. The ĝ shapes take every layout the
// section has: empty, dense, a varint index run, and one past a piece.
func TestModelFramePiecewiseDecode(t *testing.T) {
	for _, shape := range []struct{ np, nd int }{{20001, 0}, {20001, 20001}, {30001, 3000}, {100003, 7}, {100003, 60000}} {
		e := bigModelEnvelope(shape.np, shape.nd, uint64(shape.np+shape.nd))
		frame := encodeBinaryEnvelope(t, e)
		if len(frame) <= recvPieceBytes {
			t.Fatalf("fixture frame of %d bytes does not exceed the %d-byte bound", len(frame), recvPieceBytes)
		}
		want := decodeWholeModel(t, frame)
		stream := bytes.Repeat(frame, 3)
		fresh := NewBinaryConn(&byteConn{r: bytes.NewReader(stream)}, nil)
		into := NewBinaryConn(&byteConn{r: bytes.NewReader(stream)}, nil)
		for k := 0; k < 3; k++ {
			got, err := fresh.Recv()
			if err != nil {
				t.Fatalf("%v: Recv %d: %v", shape, k, err)
			}
			var env Envelope
			if err := into.RecvInto(&env); err != nil {
				t.Fatalf("%v: RecvInto %d: %v", shape, k, err)
			}
			if !envelopesBitEqual(sentForm(got), want) || !envelopesBitEqual(sentForm(&env), want) {
				t.Fatalf("%v: frame %d decodes differently from a whole-frame decode", shape, k)
			}
		}
		for name, c := range map[string]*Conn{"Recv": fresh, "RecvInto": into} {
			if n := cap(c.recvBuf); n > recvPieceBytes {
				t.Errorf("%v: %s left a %d-byte frame buffer, bound %d", shape, name, n, recvPieceBytes)
			}
			if got, want := c.BytesReceived(), int64(len(stream)); got != want {
				t.Errorf("%v: %s read %d bytes, want %d", shape, name, got, want)
			}
		}
	}
}

// TestModelFrameCutAtPieceBoundary: a piecewise model frame cut at any
// piece boundary, or a byte either side of one, is a malformed frame
// (errWireFrame) on both receive paths — never a panic, never a clean EOF.
func TestModelFrameCutAtPieceBoundary(t *testing.T) {
	frame := encodeBinaryEnvelope(t, bigModelEnvelope(40001, 9001, 3))
	var cuts []int
	for b := 4 + recvPieceBytes; b < len(frame); b += recvPieceBytes {
		cuts = append(cuts, b-1, b, b+1)
	}
	cuts = append(cuts, len(frame)-1)
	// The boundary between the params and ĝ's section, a value split in
	// two there, and the section's head cut short.
	ps := 4 + envHeaderBytes + 4 + 4*40001
	cuts = append(cuts, ps, ps+3, ps-2, ps+8)
	for _, cut := range cuts {
		for _, fresh := range []bool{true, false} {
			c := NewBinaryConn(&byteConn{r: bytes.NewReader(frame[:cut])}, nil)
			var err error
			if fresh {
				_, err = c.Recv()
			} else {
				err = c.RecvInto(&Envelope{})
			}
			if !errors.Is(err, errWireFrame) {
				t.Fatalf("cut at %d of %d (fresh %v): err = %v, want errWireFrame", cut, len(frame), fresh, err)
			}
		}
	}
}

// TestModelFrameLyingCountsRejected: a long model frame whose nParams, or
// whose ĝ section's dim or nnz, disagrees with its length is refused.
func TestModelFrameLyingCountsRejected(t *testing.T) {
	frame := encodeBinaryEnvelope(t, bigModelEnvelope(20001, 5, 9))
	section := 4 + envHeaderBytes + 4 + 4*20001
	for _, off := range []int{4 + envHeaderBytes, section, section + 4} {
		for _, v := range []uint32{0, 1, 4, 6, 20000, 20002, 0xffffffff} {
			mut := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(mut[off:], v)
			_, err := NewBinaryConn(&byteConn{r: bytes.NewReader(mut)}, nil).Recv()
			if !errors.Is(err, errWireFrame) {
				t.Fatalf("count %d at offset %d: err = %v, want errWireFrame", v, off, err)
			}
		}
	}
}

// TestFrameBufferShrinksAfterDenseUpdate: a dense update grows the frame
// buffer past recvPieceBytes; the first update that needs under a quarter
// of it shrinks it to that update's size, and equal-size updates after
// that leave it alone.
func TestFrameBufferShrinksAfterDenseUpdate(t *testing.T) {
	const dim = 50000
	r := stats.NewRNG(13)
	g := make([]float64, dim)
	for i := range g {
		g[i] = float64(float32(r.Norm()))
	}
	dense := encodeBinaryEnvelope(t, &Envelope{Type: MsgUpdate, Update: compress.Identity{}.Encode(g, 1)})
	sparse := encodeBinaryEnvelope(t, &Envelope{Type: MsgUpdate, Update: compress.SelectTopK(g, 2000)})
	c := NewBinaryConn(&byteConn{r: bytes.NewReader(append(append(dense, sparse...), sparse...))}, nil)
	var env Envelope
	if err := c.RecvInto(&env); err != nil {
		t.Fatal(err)
	}
	if got := cap(c.recvBuf); got != len(dense)-4 {
		t.Fatalf("after the dense update: %d-byte frame buffer, want %d", got, len(dense)-4)
	}
	for k := 0; k < 2; k++ {
		if err := c.RecvInto(&env); err != nil {
			t.Fatal(err)
		}
		if got := cap(c.recvBuf); got != len(sparse)-4 {
			t.Fatalf("after sparse update %d: %d-byte frame buffer, want %d", k, got, len(sparse)-4)
		}
		if got := cap(env.Update.Values); got != 2000 {
			t.Fatalf("after sparse update %d: decode scratch holds %d values, want 2000", k, got)
		}
	}
}
