package rpc

import (
	"net"
	"testing"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// TestServerClientDisconnectEndsCleanly: when the only client vanishes the
// server evicts it, falls below MinClients and ends the session cleanly —
// a partial result with no error, rather than an abort or a hang.
func TestServerClientDisconnectEndsCleanly(t *testing.T) {
	newModel := func() *nn.Model { return nn.NewModel([]int{4}, 2, nn.NewDense(4, 2, stats.NewRNG(1))) }
	cfg := core.DefaultConfig()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 5,
		Cfg: cfg, NewModel: newModel, Logf: quiet,
		StragglerTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan *ServerResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := srv.Run()
		resCh <- res
		errCh <- err
	}()
	c, err := Dial("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 4}); err != nil {
		t.Fatal(err)
	}
	// Receive the first model broadcast, then vanish without replying.
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatalf("session should end cleanly, got %v", err)
	}
	if !res.EndedEarly {
		t.Fatal("lost-client session not flagged EndedEarly")
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if len(res.Rounds) >= 5 {
		t.Fatalf("session ran all %d rounds with no clients", len(res.Rounds))
	}
}

// TestServerRejectsDuplicateIDs: a second registration with a live id is
// turned away with a shutdown message, and the session is unharmed.
func TestServerRejectsDuplicateIDs(t *testing.T) {
	newModel := func() *nn.Model { return nn.NewModel([]int{4}, 2, nn.NewDense(4, 2, stats.NewRNG(1))) }
	cfg := core.DefaultConfig()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 2,
		Cfg: cfg, NewModel: newModel, Logf: quiet,
		StragglerTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *Conn {
		c, err := Dial("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	resCh := make(chan *ServerResult, 1)
	go func() {
		res, err := srv.Run()
		if err != nil {
			t.Errorf("server: %v", err)
		}
		resCh <- res
	}()
	// waitReg blocks until the server has processed id's registration, so
	// the duplicate below deterministically arrives second.
	waitReg := func(id int) {
		t.Helper()
		for i := 0; i < 400; i++ {
			if srv.roster.Peer(id) != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("client %d never registered", id)
	}
	c1 := dial()
	if err := c1.Send(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	waitReg(0)
	c2 := dial()
	if err := c2.Send(&Envelope{Type: MsgHello, ClientID: 0, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	// The duplicate is told to go away; the original connection stays up.
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if e, err := c2.Recv(); err == nil && e.Type != MsgShutdown {
		t.Fatalf("duplicate got %v, want shutdown", e.Type)
	}
	c2.Close()
	// Complete the quorum; the raw conns never answer, so the server
	// evicts them and ends the session cleanly.
	c3 := dial()
	if err := c3.Send(&Envelope{Type: MsgHello, ClientID: 1, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if !res.EndedEarly {
		t.Fatal("mute-client session not flagged EndedEarly")
	}
	c1.Close()
	c3.Close()
}

// TestClientRejectsUnexpectedMessage ensures protocol violations error out
// instead of being silently misinterpreted — and are not retried.
func TestClientRejectsUnexpectedMessage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn, _, err := Accept(raw, MsgHello)
		if err != nil {
			return
		}
		conn.Send(&Envelope{Type: MsgScore}) // nonsense: server never sends scores
	}()

	ds := tinyDataset(t)
	res, err := RunClient(ClientConfig{
		Addr: ln.Addr().String(), ID: 0, Data: ds,
		NewModel:   func() *nn.Model { return nn.NewImageMLP([]int{1, 16, 16}, []int{8}, 10, stats.NewRNG(2)) },
		LocalSteps: 1, BatchSize: 4, LR: 0.1,
		Utility: core.DefaultUtility(), UpBps: 1e6, DownBps: 1e6,
		Logf: quiet, Seed: 3,
		MaxRetries: 5, RetryBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("client accepted a protocol violation")
	}
	if res.Reconnects != 0 {
		t.Fatalf("protocol violation was retried %d times", res.Reconnects)
	}
}

// TestClientToleratesWelcomeAfterFirstBroadcast: the server's welcome and
// its first broadcast are written by different goroutines, so the welcome
// can land between the client's score and the select. That is not a
// protocol violation — the client must skip it and finish the round.
func TestClientToleratesWelcomeAfterFirstBroadcast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	newModel := func() *nn.Model { return nn.NewImageMLP([]int{1, 16, 16}, []int{8}, 10, stats.NewRNG(2)) }
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn, _, err := Accept(raw, MsgHello)
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Send(&Envelope{Type: MsgModel, Params: newModel().ParamVector()})
		conn.Recv() // score
		conn.Send(&Envelope{Type: MsgWelcome})
		conn.Send(&Envelope{Type: MsgSelect}) // ratio 0: withheld
		conn.Send(&Envelope{Type: MsgShutdown})
	}()
	res, err := RunClient(ClientConfig{
		Addr: ln.Addr().String(), ID: 0, Data: tinyDataset(t), NewModel: newModel,
		LocalSteps: 1, BatchSize: 4, LR: 0.1,
		Utility: core.DefaultUtility(), UpBps: 1e6, DownBps: 1e6,
		Logf: quiet, Seed: 3,
	})
	if err != nil {
		t.Fatalf("late welcome treated as an error: %v", err)
	}
	if res.Rounds != 1 {
		t.Fatalf("client completed %d rounds, want 1", res.Rounds)
	}
}

// TestConnRecvAfterClose returns an error, not a hang.
func TestConnRecvAfterClose(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
	ca.Close()
	if _, err := cb.Recv(); err == nil {
		t.Fatal("recv on closed pipe succeeded")
	}
}

// tinyDataset builds a minimal client shard for protocol tests.
func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.SynthMNIST(40, 16, 1)
}
