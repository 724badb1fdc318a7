package rpc

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// fakeAsyncServer speaks the server half of the async protocol on one
// listener: welcome at the current version, answer pulls with the
// current params, bump the version per push, and shut the client down
// after `budget` pushes. It negotiates the wire codec through the same
// exported Accept the federation server path uses.
type fakeAsyncServer struct {
	ln      net.Listener
	dim     int
	budget  int
	pings   bool
	rejects bool

	pushes   int
	sessions []string
	done     chan struct{}
}

func startFakeAsync(t *testing.T, dim, budget int, pings, rejects bool) *fakeAsyncServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeAsyncServer{ln: ln, dim: dim, budget: budget, pings: pings, rejects: rejects, done: make(chan struct{})}
	go f.serve()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeAsyncServer) serve() {
	defer close(f.done)
	raw, err := f.ln.Accept()
	if err != nil {
		return
	}
	conn, hello, err := Accept(raw, MsgHello)
	if err != nil {
		return
	}
	defer conn.Close()
	f.sessions = append(f.sessions, hello.Session)
	if f.rejects {
		conn.Send(&Envelope{Type: MsgShutdown, Info: "session full"})
		return
	}
	params := make([]float64, f.dim)
	version := 0
	if err := conn.Send(&Envelope{Type: MsgWelcome, Round: version}); err != nil {
		return
	}
	if f.pings {
		if err := conn.Send(&Envelope{Type: MsgPing, Round: 7}); err != nil {
			return
		}
	}
	for {
		e, err := conn.Recv()
		if err != nil {
			return
		}
		switch e.Type {
		case MsgAsyncPull:
			if f.pushes >= f.budget {
				conn.Send(&Envelope{Type: MsgShutdown, Info: "version budget reached"})
				return
			}
			if err := conn.Send(&Envelope{Type: MsgModel, Round: version, Params: params}); err != nil {
				return
			}
		case MsgAsyncPush:
			if e.Update == nil || e.Round != version {
				return
			}
			f.pushes++
			version++
		case MsgPing:
			// echo of our ping: nothing to do
		default:
			return
		}
	}
}

// TestAsyncClientLoop drives the client's pull→train→push cycle against
// a protocol-exact fake server: the welcome triggers the first pull,
// every model broadcast produces a push pinned to the pulled version,
// pings are echoed mid-stream, and the budget shutdown ends the run
// cleanly with the push count on the result.
func TestAsyncClientLoop(t *testing.T) {
	env := newChaosEnv(1, 120, 12, 8, 91)
	f := startFakeAsync(t, env.newModel().NumParams(), 4, true, false)
	cfg := env.clientConfig(0, f.ln.Addr().String())
	cfg.Async = true
	cfg.Session = "loop-test"
	res, err := RunClient(cfg)
	if err != nil {
		t.Fatalf("async client: %v", err)
	}
	<-f.done
	if f.pushes != 4 {
		t.Fatalf("server folded %d pushes, want 4", f.pushes)
	}
	if res.Rounds != 4 || res.Uploads != 4 {
		t.Fatalf("client result %+v, want 4 rounds / 4 uploads", res)
	}
	if res.BytesSent == 0 {
		t.Fatal("client reported zero bytes sent")
	}
	if len(f.sessions) != 1 || f.sessions[0] != "loop-test" {
		t.Fatalf("hello carried sessions %q, want [loop-test]", f.sessions)
	}
}

// TestAsyncClientRejectedBeforeWelcome: a shutdown in place of the
// welcome (admission cap, unknown session) is a clean no-work exit, not
// an error — the client must not burn its retry budget redialing.
func TestAsyncClientRejectedBeforeWelcome(t *testing.T) {
	env := newChaosEnv(1, 120, 12, 8, 93)
	f := startFakeAsync(t, env.newModel().NumParams(), 0, false, true)
	cfg := env.clientConfig(0, f.ln.Addr().String())
	cfg.Async = true
	res, err := RunClient(cfg)
	if err != nil {
		t.Fatalf("rejected async client must exit cleanly: %v", err)
	}
	<-f.done
	if res.Rounds != 0 || res.Uploads != 0 {
		t.Fatalf("rejected client did work: %+v", res)
	}
}

// TestAsyncClientDimensionMismatch: a broadcast whose parameter vector
// does not match the local model is a protocol error, not something to
// train on.
func TestAsyncClientDimensionMismatch(t *testing.T) {
	env := newChaosEnv(1, 120, 12, 8, 95)
	f := startFakeAsync(t, env.newModel().NumParams()+1, 1, false, false)
	cfg := env.clientConfig(0, f.ln.Addr().String())
	cfg.Async = true
	if _, err := RunClient(cfg); err == nil {
		t.Fatal("client trained on a mis-sized broadcast")
	}
	_ = f
}

// TestDialNegotiatesAndRejects covers the exported Dial and Accept pair:
// the handshake and an exchange over it, a first frame of the wrong type
// refused by Accept, and a dial timeout that bounds a listener which
// never answers the preamble.
func TestDialNegotiatesAndRejects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serve := func(want MsgType) chan error {
		out := make(chan error, 1)
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				out <- err
				return
			}
			conn, hello, err := Accept(raw, want)
			if err != nil {
				out <- err
				return
			}
			defer conn.Close()
			out <- conn.Send(&Envelope{Type: MsgPing, Round: hello.Round})
		}()
		return out
	}

	served := serve(MsgHello)
	conn, err := Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := conn.Send(&Envelope{Type: MsgHello, Round: 3}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if e, err := conn.Recv(); err != nil || e.Type != MsgPing || e.Round != 3 {
		t.Fatalf("echo: %+v, %v", e, err)
	}
	if err := <-served; err != nil {
		t.Fatalf("server side: %v", err)
	}
	conn.Close()

	served = serve(MsgEdgeHello)
	if conn, err = Dial("tcp", ln.Addr().String(), time.Second); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := conn.Send(&Envelope{Type: MsgHello}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "first frame") {
		t.Fatalf("a Hello where an EdgeHello was due: %v", err)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("refused connection left open")
	}

	// Nobody accepts: the kernel completes the connect, the preamble is
	// never answered, and the timeout is what returns.
	start := time.Now()
	if _, err := Dial("tcp", ln.Addr().String(), 50*time.Millisecond); err == nil {
		t.Fatal("handshake with a mute listener succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("mute listener held Dial for %v", took)
	}
}

// TestPushAndPullOneWrite: an async client's push and the pull that
// follows it leave in one Write, the server's answer to a pull — the
// version's once-encoded frame — in one Write, and the server's
// BytesReceived equals the client's BytesSent.
func TestPushAndPullOneWrite(t *testing.T) {
	env := newChaosEnv(1, 120, 12, 8, 95)
	cfg := env.clientConfig(0, "")
	cfg.Async = true
	sess, err := newClientSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cRaw, sRaw := net.Pipe()
	cw, sw := &writeCounter{Conn: cRaw}, &writeCounter{Conn: sRaw}
	client, server := NewBinaryConn(cw, nil), NewBinaryConn(sw, nil)
	defer client.Close()
	defer server.Close()
	params := env.newModel().ParamVector()

	const steps = 3
	errc := make(chan error, 1)
	go func() { // the client: train from each model, then push and pull
		var e Envelope
		for i := 0; i < steps; i++ {
			if err := client.RecvInto(&e); err != nil {
				errc <- err
				return
			}
			before := cw.writes.Load()
			if err := sess.asyncStep(client, &e); err != nil {
				errc <- err
				return
			}
			if n := cw.writes.Load() - before; n != 1 {
				errc <- fmt.Errorf("step %d: the push and the pull took %d writes, want 1", i, n)
				return
			}
		}
		errc <- nil
	}()
	for v := 0; v < steps; v++ {
		before := sw.writes.Load()
		if err := server.SendWithin(time.Second, ModelFrame(v, params, nil)); err != nil {
			t.Fatal(err)
		}
		if n := sw.writes.Load() - before; n != 1 {
			t.Errorf("version %d: the pull's answer took %d writes, want 1", v, n)
		}
		var push, pull Envelope
		if err := server.RecvInto(&push); err != nil || push.Type != MsgAsyncPush || push.Round != v {
			t.Fatalf("version %d: got %v round %d (%v), want a push from version %d", v, push.Type, push.Round, err, v)
		}
		if err := server.RecvInto(&pull); err != nil || pull.Type != MsgAsyncPull {
			t.Fatalf("version %d: got %v (%v) after the push, want a pull", v, pull.Type, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got, want := server.BytesReceived(), client.BytesSent(); got != want {
		t.Fatalf("server received %d bytes, client sent %d", got, want)
	}
}
