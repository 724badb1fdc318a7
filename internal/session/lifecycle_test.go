package session

import (
	"runtime"
	"testing"
	"time"

	"adafl/internal/leakcheck"
	"adafl/internal/rpc"
)

// asyncRun is one async session behind a manager with n real clients.
type asyncRun struct {
	mgr     *Manager
	sess    *AsyncSession
	ln      *leakcheck.Listener
	results []*rpc.ClientResult
	errs    []error
	clients chan struct{}
}

func startAsync(t *testing.T, env *testEnv, cfg AsyncConfig) *asyncRun {
	t.Helper()
	cfg.NewModel, cfg.Logf = env.newModel, quiet
	sess, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{Addr: "127.0.0.1:0", Logf: quiet})
	if err != nil {
		t.Fatal(err)
	}
	r := &asyncRun{mgr: mgr, sess: sess, ln: leakcheck.Wrap(mgr.listener), clients: make(chan struct{})}
	mgr.listener = r.ln
	if err := mgr.Register("", sess); err != nil {
		t.Fatal(err)
	}
	go mgr.Serve()
	var cfgs []rpc.ClientConfig
	for i := 0; i < env.clients; i++ {
		cfgs = append(cfgs, env.asyncClient(i, mgr.Addr(), "")) // MaxRetries 0
	}
	go func() {
		r.results, r.errs = runClients(cfgs)
		close(r.clients)
	}()
	return r
}

// TestAsyncCleanShutdownClientsExitNil pins the async farewell: ten clean
// sessions of 8 real clients that do not retry, and every one of the 80
// exits must be nil — the farewell goes out while the serve goroutines
// still hold their sockets, and each socket is read until the client has
// closed it, so a push or pull in flight is not answered with a reset that
// destroys the unread farewell. Because every socket is read to its end,
// the server's uplink count equals what the clients sent, to the byte.
func TestAsyncCleanShutdownClientsExitNil(t *testing.T) {
	env := newTestEnv(8, 400, 12, 8, 71)
	for s := 0; s < 10; s++ {
		r := startAsync(t, env, AsyncConfig{K: 4, Versions: 30})
		res, err := r.sess.Run()
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		r.mgr.Close()
		<-r.clients
		var sent int64
		for i, cerr := range r.errs {
			if cerr != nil {
				t.Errorf("session %d: client %d: %v", s, i, cerr)
			}
			sent += r.results[i].BytesSent
		}
		if res.BytesReceived != sent {
			t.Errorf("session %d: server counted %d uplink bytes, clients sent %d", s, res.BytesReceived, sent)
		}
	}
}

// TestAsyncExitsLeakNothing takes the async session and its manager out of
// their exits — budget met, and Kill (Run has no other error) — and checks
// connections and goroutines. The clean run carries a client that breaks
// protocol, which must cost its own connection and nothing else.
func TestAsyncExitsLeakNothing(t *testing.T) {
	env := newTestEnv(4, 200, 12, 8, 73)
	for _, exit := range []string{"clean", "kill"} {
		t.Run(exit, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := AsyncConfig{K: 2, Versions: 12}
			if exit == "kill" {
				cfg.Versions = 1 << 20
			}
			r := startAsync(t, env, cfg)
			if exit == "kill" {
				go func() {
					for r.sess.Version() < 3 {
						time.Sleep(time.Millisecond)
					}
					r.sess.Kill()
				}()
			} else {
				rogue, err := rpc.Dial("tcp", r.mgr.Addr(), 0)
				if err != nil {
					t.Fatal(err)
				}
				defer rogue.Close()
				rogue.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: 99})
				rogue.Send(&rpc.Envelope{Type: rpc.MsgScore}) // not an async message
			}
			_, err := r.sess.Run()
			if want := map[string]error{"clean": nil, "kill": ErrKilled}[exit]; err != want {
				t.Fatalf("Run: %v, want %v", err, want)
			}
			r.mgr.Close()
			<-r.clients
			if exit == "clean" {
				for i, cerr := range r.errs {
					if cerr != nil {
						t.Errorf("client %d: %v", i, cerr)
					}
				}
			}
			leakcheck.Check(t, baseline, r.ln)
		})
	}
}
