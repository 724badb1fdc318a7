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

// TestClientRetainedHeapBudget pins what a wire client keeps between
// rounds for the paper's CNN (431 080 parameters): after two dense
// warm-up rounds (zero ĝ, ratio 1) and one sparse round (a full ĝ, ratio
// 8), the heap it retains is at most 70 B per parameter. The parameters
// travel at 4 B each; what the client holds is the float32 model with its
// gradients and momentum, the f64 broadcast params and ĝ, the f64 local
// delta, and DGC's u, v and select scratch. This probe read 85 B/param
// while DGC copied its stage and model frames were read whole, and reads
// 53 B/param now (amd64).
//
// The server side is scripted on the raw socket and reads every upload
// without decoding it, so nothing but the client is measured.
func TestClientRetainedHeapBudget(t *testing.T) {
	newModel := func() *nn.Model { return nn.NewPaperCNN(stats.NewRNG(5)) }
	global := newModel().ParamVector()
	dim := len(global)
	if dim != 431080 {
		t.Fatalf("paper CNN has %d params, want 431080", dim)
	}
	r := stats.NewRNG(9)
	ghat := make([]float64, dim)
	for i := range ghat {
		ghat[i] = r.Norm() * 1e-3
	}
	data := dataset.SynthMNIST(64, 28, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := core.DefaultConfig()

	measured := make(chan int64, 1)
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
			for round, ratio := range []float64{1, 1, 8} {
				m := &Envelope{Type: MsgModel, Round: round, Params: global}
				if round == 2 {
					m.GlobalDelta = ghat
				}
				if err := conn.Send(m); err != nil {
					return err
				}
				if err := expect(MsgScore); err != nil {
					return err
				}
				if err := conn.Send(&Envelope{Type: MsgSelect, Round: round, Ratio: ratio}); err != nil {
					return err
				}
				if err := expect(MsgUpdate); err != nil {
					return err
				}
			}
			// The ping's echo proves the client is back in its receive
			// loop, idle, holding only what it keeps between rounds.
			if err := conn.Send(&Envelope{Type: MsgPing, Round: 3}); err != nil {
				return err
			}
			if err := expect(MsgPing); err != nil {
				return err
			}
			measured <- liveHeap() - base
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
	perParam := float64(<-measured) / float64(dim)
	t.Logf("client retains %.1f B/param at dim %d", perParam, dim)
	if perParam > 70 {
		t.Errorf("client retains %.1f B/param, budget 70", perParam)
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
// any aggregate — the broadcast carries none (nDelta = 0: the frame is
// exactly header, counts and the f32 params), and every later broadcast
// carries it in full. Leaving the zeros out changes nothing the session
// computes (a client scores an empty ĝ as a zero one): the digest of every
// broadcast's params, every later broadcast's ĝ, every round's scores and
// ratios and the final global pins the session.
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
			got = append(got, seen{conn.BytesReceived() - before, len(e.GlobalDelta), e.Params, e.GlobalDelta})
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
				upd := scriptedUpdate(observer, e.Round, len(e.Params))
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
		wantDelta := dim // every round's aggregate moves the global
		if r == 0 {
			wantDelta = 0
		}
		if s.nDelta != wantDelta {
			t.Errorf("round %d broadcast carries %d ĝ values, want %d", r, s.nDelta, wantDelta)
		}
		if frame := int64(4 + envHeaderBytes + 8 + 4*dim + 8*wantDelta); s.frame != frame {
			t.Errorf("round %d broadcast is %d bytes on the wire, want %d", r, s.frame, frame)
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
