package rpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// liveHeap returns the heap in use after two full collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// skipFrame reads one frame off raw without keeping it and returns its
// message type.
func skipFrame(raw io.Reader) (MsgType, error) {
	var head [4 + envHeaderBytes]byte
	if _, err := io.ReadFull(raw, head[:]); err != nil {
		return 0, err
	}
	n := int64(binary.LittleEndian.Uint32(head[:])) - envHeaderBytes
	_, err := io.CopyN(io.Discard, raw, n)
	return MsgType(head[4]), err
}

// TestClientRetainedHeapBudget pins what a wire client keeps for the
// paper's CNN (431 080 parameters) over two dense warm-up rounds (empty ĝ,
// ratio 1), one round at ratio 8 whose ĝ has every coordinate (sent
// dense) and one more whose ĝ has one coordinate in seven, as cnn_train's
// has after its warm-up (sent as pairs). Each round is measured with DGC's
// stage open and again once it is committed. The parameters travel at 4 B
// each; what the client holds is the float32 model (12 B with its
// gradients and momentum) and its layer buffers (≈ 7.4), the broadcast's
// float32 params (4 B), ĝ as it was sent (8 B per coordinate dense, 12 B
// per coordinate of its support as pairs), DGC's residual v (8 B; at the
// default momentum 0 it keeps no u), a select scratch sized to the
// bracket, and the stage: the sent values as float32, with their indices
// unless the message is dense. The update itself is read from the model
// and the broadcast's params, not held.
//
// Measured (amd64), staged / idle B/param, round by round: 37.4 / 33.4,
// 37.4 / 33.4, 42.2 / 41.7, 36.0 / 35.4. The client that held an f64
// delta, DGC's u, a dim-sized select scratch and the message as its stage
// read 61.4 / 49.4, 61.4 / 49.4, 66.2 / 65.4, 59.9 / 59.1; before that it
// widened the params to f64 and held ĝ dense (69.4 after the dense ĝ).
//
// The server side is scripted on the raw socket, sends each broadcast as
// a frame built before the baseline and reads every upload without
// decoding it, so nothing but the client is measured.
func TestClientRetainedHeapBudget(t *testing.T) {
	newModel := func() *nn.Model { return nn.NewPaperCNN(stats.NewRNG(5)) }
	global := newModel().ParamVector()
	dim := len(global)
	if dim != 431080 {
		t.Fatalf("paper CNN has %d params, want 431080", dim)
	}
	r := stats.NewRNG(9)
	ghat, sparse := make([]float64, dim), make([]float64, dim)
	for i := range ghat {
		ghat[i] = r.Norm() * 1e-3
		if i%7 == 0 {
			sparse[i] = ghat[i]
		}
	}
	data := dataset.SynthMNIST(64, 28, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := core.DefaultConfig()

	// Each round is measured twice (B/param): staged, once the server has
	// read the upload and before it sends anything, so DGC's stage is
	// open, as it is while the server waits for the round's other
	// clients; and idle, after a ping's echo has committed it.
	rounds := []struct {
		ratio        float64
		ghat         []float64
		staged, idle float64
	}{{1, nil, 39, 35}, {1, nil, 39, 35}, {8, ghat, 44, 43}, {8, sparse, 38, 37}}
	frames := make([]*Frame, len(rounds))
	for round, rd := range rounds {
		frames[round] = ModelFrame(round, global, rd.ghat)
	}
	measured := make(chan int64, 2*len(rounds))
	serverErr := make(chan error, 1)
	base := liveHeap()
	go func() {
		serverErr <- func() error {
			raw, err := ln.Accept()
			if err != nil {
				return err
			}
			conn, _, err := Accept(raw, MsgHello)
			if err != nil {
				return err
			}
			defer conn.Close()
			// expect reads frames until one of type want; a late welcome
			// is the only other frame the client sends unasked.
			expect := func(want MsgType) error {
				for {
					typ, err := skipFrame(raw)
					if err != nil || typ == want {
						return err
					}
				}
			}
			for round, rd := range rounds {
				if err := conn.Send(frames[round]); err != nil {
					return err
				}
				if err := expect(MsgScore); err != nil {
					return err
				}
				if err := conn.Send(&Envelope{Type: MsgSelect, Round: round, Ratio: rd.ratio}); err != nil {
					return err
				}
				if err := expect(MsgUpdate); err != nil {
					return err
				}
				measured <- liveHeap() - base
				// The ping's echo proves the client is back in its
				// receive loop, idle, holding only what it keeps between
				// rounds.
				if err := conn.Send(&Envelope{Type: MsgPing, Round: round}); err != nil {
					return err
				}
				if err := expect(MsgPing); err != nil {
					return err
				}
				measured <- liveHeap() - base
			}
			return conn.Send(&Envelope{Type: MsgShutdown, Info: "done"})
		}()
	}()
	_, err = RunClient(ClientConfig{
		Addr: ln.Addr().String(), ID: 0, Data: data, NewModel: newModel,
		LocalSteps: 1, BatchSize: 16, LR: 0.05, Momentum: 0.9,
		Utility: cfg.Utility, UpBps: 2.5e6, DownBps: 5e6,
		DGCMomentum: cfg.DGCMomentum, DGCClip: cfg.DGCClip, DGCMsgClip: cfg.DGCMsgClip,
		Seed: 3, Logf: quiet,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
	runtime.KeepAlive(global)
	runtime.KeepAlive(rounds)
	runtime.KeepAlive(frames)
	for round, rd := range rounds {
		for _, at := range []struct {
			name   string
			budget float64
		}{{"staged", rd.staged}, {"idle", rd.idle}} {
			perParam := float64(<-measured) / float64(dim)
			t.Logf("round %d, %s: client retains %.1f B/param at dim %d", round, at.name, perParam, dim)
			if perParam > at.budget {
				t.Errorf("round %d, %s: client retains %.1f B/param, budget %.1f", round, at.name, perParam, at.budget)
			}
		}
	}
}

// TestServerReceiveRetainedHeapBudget pins what the server's receive path
// keeps per connection once the warm-up is over. 64 connections each
// deliver one dense update at dim 431 080 and then one at ratio 4, and the
// server folds both, as runRound does from each peer's receive scratch.
// Afterwards the heap retained must be at most 64 × (the sparse frame, its
// decoded indices and values at 12 B per coordinate, and 64 KiB for the
// connection's fixed buffers) — O(connections × current update), where a
// dense warm-up used to leave every connection holding its 1.7 MB frame
// and 5.2 MB of decode scratch. Each connection receives both of its
// updates before the next starts, which keeps the test's own peak at one
// dense update.
func TestServerReceiveRetainedHeapBudget(t *testing.T) {
	const dim, conns = 431080, 64
	r := stats.NewRNG(21)
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.Norm()
	}
	dense := compress.Identity{}.Encode(g, 1)
	sparse := (&compress.TopK{}).Encode(g, 4)
	sparseFrame := len(encodeBinaryEnvelope(t, &Envelope{Type: MsgUpdate, Update: sparse}))
	sum := make([]float64, dim)

	base := liveHeap()
	receivers := make([]*Conn, conns)
	envs := make([]Envelope, conns)
	for i := range receivers {
		a, b := net.Pipe()
		sent := make(chan error, 1)
		go func() {
			send := NewBinaryConn(a, nil)
			defer send.Close()
			err := send.Send(&Envelope{Type: MsgUpdate, ClientID: i, Update: dense})
			if err == nil {
				err = send.Send(&Envelope{Type: MsgUpdate, ClientID: i, Round: 1, Update: sparse})
			}
			sent <- err
		}()
		recv := NewBinaryConn(b, nil)
		for round := 0; round < 2; round++ {
			if err := recv.RecvInto(&envs[i]); err != nil {
				t.Fatalf("conn %d round %d: %v", i, round, err)
			}
			envs[i].Update.AddTo(sum, 1.0/conns)
		}
		if err := <-sent; err != nil {
			t.Fatalf("conn %d send: %v", i, err)
		}
		receivers[i] = recv
	}
	retained := liveHeap() - base
	perConn := int64(sparseFrame + 12*sparse.NNZ() + 64<<10)
	t.Logf("%d connections retain %d B each; budget %d (sparse frame %d B, %d coordinates)",
		conns, retained/conns, perConn, sparseFrame, sparse.NNZ())
	if retained > conns*perConn {
		t.Errorf("receive path retains %d B over %d connections, budget %d", retained, conns, conns*perConn)
	}
	runtime.KeepAlive(receivers)
	runtime.KeepAlive(envs)
}

// TestWarmupBroadcastSendsNoDelta: while ĝ is all zero — round 0, before
// any aggregate — the broadcast carries none (an empty ĝ section: the
// frame is exactly header, count, the f32 params and the section's 9-byte
// head), and every later broadcast carries it, at most as a dense f64
// run. Leaving the zeros out changes nothing the session computes (a
// client scores an empty ĝ as a zero one): the digest of every
// broadcast's params, every later broadcast's ĝ (scattered back to a
// dense vector), every round's scores and ratios and the final global
// pins the session; it was taken when ĝ travelled as a dense f64 run.
func TestWarmupBroadcastSendsNoDelta(t *testing.T) {
	const want = "64903881e64f084316d3fcc1b83fcda6f82188baa58509b48cef9a4e602fee95"
	const rounds, observer = 4, 3
	env := newChaosEnv(4, 480, 12, 16, 73)
	scfg := env.serverConfig(rounds)
	var serverModel *nn.Model
	scfg.NewModel = func() *nn.Model { serverModel = env.newModel(); return serverModel }
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.OpenEventLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Events = events
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, observer)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	clientsDone := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		clientsDone <- errs
	}()
	type seen struct {
		frame          int64
		nDelta         int
		params, gdelta []float64
	}
	obsDone := make(chan []seen, 1)
	go func() {
		var got []seen
		defer func() { obsDone <- got }()
		conn, err := Dial("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		if conn.Send(&Envelope{Type: MsgHello, ClientID: observer, NumSamples: env.parts[observer].Len()}) != nil {
			return
		}
		for {
			before := conn.BytesReceived()
			e, err := conn.Recv()
			if err != nil || e.Type == MsgShutdown {
				return
			}
			if e.Type != MsgModel {
				continue
			}
			sent := sentForm(e)
			got = append(got, seen{conn.BytesReceived() - before, len(e.GlobalDelta), sent.Params, sent.GlobalDelta})
			if conn.Send(&Envelope{Type: MsgScore, ClientID: observer, Round: e.Round, Score: 1}) != nil {
				return
			}
			sel, err := conn.Recv()
			if err == nil && sel.Type == MsgWelcome {
				sel, err = conn.Recv()
			}
			if err != nil || sel.Type != MsgSelect {
				return
			}
			if sel.Ratio > 0 {
				upd := scriptedUpdate(observer, e.Round, len(e.Params32))
				if conn.Send(&Envelope{Type: MsgUpdate, ClientID: observer, Round: e.Round, Update: upd}) != nil {
					return
				}
			}
		}
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, cerr := range <-clientsDone {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}
	got := <-obsDone
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != rounds || res.Evictions != 0 || len(got) != rounds {
		t.Fatalf("%d/%d rounds, %d evictions, observer saw %d broadcasts", len(res.Rounds), rounds, res.Evictions, len(got))
	}
	dim := len(got[0].params)
	for r, s := range got {
		// Every round's aggregate moves the global, so every later ĝ has
		// a support, and no section is larger than the dense one.
		frame := int64(4 + envHeaderBytes + 4 + 4*dim + 9)
		if r == 0 && (s.nDelta != 0 || s.frame != frame) {
			t.Errorf("round 0 broadcast carries %d ĝ values in %d bytes, want none in %d", s.nDelta, s.frame, frame)
		}
		if r > 0 && (s.nDelta == 0 || len(s.gdelta) != dim || s.frame > frame+8*int64(dim)) {
			t.Errorf("round %d broadcast carries %d ĝ values in %d bytes, want some in at most %d",
				r, s.nDelta, s.frame, frame+8*int64(dim))
		}
	}

	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	for r, s := range got {
		for _, v := range s.params {
			word(math.Float64bits(v))
		}
		if r > 0 {
			for _, v := range s.gdelta {
				word(math.Float64bits(v))
			}
		}
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	selections := 0
	for _, ev := range evs {
		if ev.Type != "selection" {
			continue
		}
		selections++
		ids := make([]int, 0, len(ev.Scores))
		for id := range ev.Scores {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		word(uint64(ev.Round))
		for _, id := range ids {
			word(uint64(id))
			word(math.Float64bits(ev.Scores[id]))
			word(math.Float64bits(ev.Ratios[id]))
		}
	}
	if selections != rounds {
		t.Fatalf("%d selection events, want %d", selections, rounds)
	}
	for _, v := range serverModel.ParamVector() {
		word(math.Float64bits(v))
	}
	if digest := hex.EncodeToString(h.Sum(nil)); digest != want {
		t.Errorf("session digest %s, want %s", digest, want)
	}
}
