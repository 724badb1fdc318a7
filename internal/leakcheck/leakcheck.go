// Package leakcheck is test support for the exit paths of the networked
// engines: "no exit path leaks a goroutine or an fd" (ROADMAP north star)
// as two assertions a test can make without a harness.
package leakcheck

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Listener wraps a listener and remembers every connection it accepted
// and whether it has been closed since. An engine test swaps it in for
// the engine's own listener before Run.
type Listener struct {
	net.Listener
	mu    sync.Mutex
	conns []*conn
}

type conn struct {
	net.Conn
	closed atomic.Bool
}

func (c *conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// Wrap returns ln with accounting.
func Wrap(ln net.Listener) *Listener { return &Listener{Listener: ln} }

func (l *Listener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &conn{Conn: raw}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// Check fails t unless every connection the listeners accepted has been
// closed and the goroutine count is back to baseline (taken with
// runtime.NumGoroutine before the engine started). Exit paths are allowed
// a moment to unwind — a goroutine that has been told to stop and not yet
// been scheduled is not a leak — so it polls before it fails, and then
// prints every stack.
func Check(t *testing.T, baseline int, lns ...*Listener) {
	t.Helper()
	open := func() (n, accepted int) {
		for _, l := range lns {
			l.mu.Lock()
			for _, c := range l.conns {
				accepted++
				if !c.closed.Load() {
					n++
				}
			}
			l.mu.Unlock()
		}
		return n, accepted
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		n, accepted := open()
		g := runtime.NumGoroutine()
		if n == 0 && g <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leak: %d of %d accepted connections still open, %d goroutines against a baseline of %d\n%s",
				n, accepted, g, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
