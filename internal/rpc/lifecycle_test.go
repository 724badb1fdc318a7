package rpc

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"adafl/internal/leakcheck"
)

// TestFarewellAfterSlowRoundBoundary pins the sync farewell against a stale
// deadline: WriteTimeout is 300 ms and the last round boundary (an OnRound
// that sleeps, as a slow eval or checkpoint join does) takes 600 ms, so a
// farewell that inherited the last select's absolute write deadline is
// never written and every client ends in "recv: EOF". Roster.Shutdown sets
// its own.
func TestFarewellAfterSlowRoundBoundary(t *testing.T) {
	const rounds = 3
	env := newChaosEnv(3, 300, 12, 8, 61)
	scfg := env.serverConfig(rounds)
	scfg.WriteTimeout = 300 * time.Millisecond
	scfg.OnRound = func(rec RoundRecord) {
		if rec.Round == rounds-1 {
			time.Sleep(600 * time.Millisecond)
		}
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []ClientConfig
	for i := 0; i < env.clients; i++ {
		cfgs = append(cfgs, env.clientConfig(i, srv.Addr()))
	}
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, errs = runClients(cfgs)
	}()
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	<-done
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d after a clean session: %v", i, err)
		}
	}
}

// TestServerExitsLeakNothing runs the sync server out of each of its three
// exits — budget met, Kill, and a listener that fails before the quorum —
// and checks that every accepted connection was closed and the goroutine
// count is back where it started.
func TestServerExitsLeakNothing(t *testing.T) {
	env := newChaosEnv(3, 300, 12, 8, 67)
	for _, exit := range []string{"clean", "kill", "error"} {
		t.Run(exit, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			scfg := env.serverConfig(4)
			var srv *Server
			if exit == "kill" {
				scfg.OnRound = func(rec RoundRecord) {
					if rec.Round == 1 {
						srv.Kill()
					}
				}
			}
			srv, err := NewServer(scfg)
			if err != nil {
				t.Fatal(err)
			}
			ln := leakcheck.Wrap(srv.listener)
			srv.listener = ln
			clients := env.clients
			if exit == "error" {
				clients-- // the quorum never forms
			}
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					RunClient(env.clientConfig(i, srv.Addr()))
				}(i)
			}
			if exit == "error" {
				go func() {
					for srv.roster.Len() < clients {
						time.Sleep(5 * time.Millisecond)
					}
					ln.Listener.Close() // under the roster, not through it
				}()
			}
			_, err = srv.Run()
			switch {
			case exit == "clean" && err != nil,
				exit == "kill" && err != ErrServerKilled,
				exit == "error" && (err == nil || err == ErrServerKilled):
				t.Fatalf("Run: %v", err)
			}
			wg.Wait()
			leakcheck.Check(t, baseline, ln)
		})
	}
}
