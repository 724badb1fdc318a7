package rpc

import (
	"errors"
	"flag"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adafl/internal/stats"
)

// FaultConfig describes the link faults to inject under a connection.
// Every chaos scenario the paper's resilience study cares about — slow
// links, lossy links, abrupt client death, truncated messages and network
// partitions — is expressible as a combination of these knobs, so the same
// wrapper drives both the chaos test suite and the cmd/flserver /
// cmd/flclient -fault-* flags.
type FaultConfig struct {
	// Latency is a fixed delay added before every socket write.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per write.
	Jitter time.Duration
	// Bandwidth caps write throughput in bytes/second (0 = unlimited).
	Bandwidth float64
	// DropProb is the per-write probability that the connection is killed,
	// emulating an abrupt device death or hard link loss.
	DropProb float64
	// CutAfterBytes hard-closes the connection once this many bytes have
	// been written — usually mid-message, leaving the peer a truncated
	// frame (0 = never).
	CutAfterBytes int64
	// Partition, when non-nil, black-holes reads and writes while shut.
	// Toggle it with Gate.Set/Gate.Open to model partitions that start
	// and heal at chosen points in the session.
	Partition *Gate
	// Seed drives the injection RNG (jitter and drop decisions).
	Seed uint64
}

// Active reports whether any fault is configured.
func (f *FaultConfig) Active() bool {
	return f != nil && (f.Latency > 0 || f.Jitter > 0 || f.Bandwidth > 0 ||
		f.DropProb > 0 || f.CutAfterBytes > 0 || f.Partition != nil)
}

// Errors surfaced by injected faults. They reach the peer as ordinary
// connection errors, which is the point: the protocol layer must not be
// able to tell injected failures from real ones.
var (
	ErrInjectedDrop = errors.New("rpc: fault injection: connection dropped")
	ErrInjectedCut  = errors.New("rpc: fault injection: connection cut mid-stream")
)

// faultConnSeq distinguishes successive connections wrapped from the same
// FaultConfig. Without it a reconnecting client would replay the exact
// same fault sequence on every dial — a DropProb whose first draw says
// "drop" would then kill every reconnect attempt on its first write,
// turning a probabilistic fault into a deterministic death loop.
var faultConnSeq atomic.Uint64

// WrapFault layers fault injection under a connection. It returns raw
// unchanged when no fault is configured, so the healthy path stays
// wrapper-free.
func WrapFault(raw net.Conn, f *FaultConfig) net.Conn {
	if !f.Active() {
		return raw
	}
	seed := f.Seed + faultConnSeq.Add(1)*0x9e3779b9
	fc := &faultConn{Conn: raw, f: *f, rng: stats.NewRNG(seed), closed: make(chan struct{})}
	if f.Bandwidth > 0 {
		fc.bucket = NewTokenBucket(f.Bandwidth)
	}
	return fc
}

// faultConn implements net.Conn with configurable link pathologies. Writes
// carry the latency/bandwidth/drop/cut faults; partitions block both
// directions, honouring whatever deadline the caller armed.
type faultConn struct {
	net.Conn
	f      FaultConfig
	bucket *TokenBucket

	mu      sync.Mutex // guards rng, written, dead
	rng     *stats.RNG
	written int64
	dead    bool

	dlMu          sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

func (c *faultConn) Read(p []byte) (int, error) {
	if err := c.waitGate(c.deadline(true)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if err := c.waitGate(c.deadline(false)); err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	delay := c.f.Latency
	if c.f.Jitter > 0 {
		delay += time.Duration(c.rng.Float64() * float64(c.f.Jitter))
	}
	drop := c.f.DropProb > 0 && c.rng.Float64() < c.f.DropProb
	cut := int64(-1)
	if c.f.CutAfterBytes > 0 {
		if remaining := c.f.CutAfterBytes - c.written; remaining < int64(len(p)) {
			cut = max(remaining, 0)
		}
	}
	if drop || cut >= 0 {
		c.dead = true
	}
	c.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	switch {
	case drop:
		c.Close()
		return 0, ErrInjectedDrop
	case cut >= 0:
		n := 0
		if cut > 0 {
			if c.bucket != nil {
				c.bucket.Take(int(cut))
			}
			n, _ = c.Conn.Write(p[:cut])
		}
		c.Close()
		c.addWritten(int64(n))
		return n, ErrInjectedCut
	}
	if c.bucket != nil {
		c.bucket.Take(len(p))
	}
	n, err := c.Conn.Write(p)
	c.addWritten(int64(n))
	return n, err
}

func (c *faultConn) addWritten(n int64) {
	c.mu.Lock()
	c.written += n
	c.mu.Unlock()
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) deadline(read bool) time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	if read {
		return c.readDeadline
	}
	return c.writeDeadline
}

func (c *faultConn) waitGate(deadline time.Time) error {
	if c.f.Partition == nil {
		return nil
	}
	return c.f.Partition.waitOpen(deadline, c.closed)
}

// Gate models a network partition switch shared by any number of
// connections: while shut, wrapped connections block in Read/Write until
// the gate opens, their deadline fires, or the connection is closed.
type Gate struct {
	mu sync.Mutex
	ch chan struct{} // non-nil while shut; closed (the channel) on open
}

// NewGate returns a gate in the given initial state.
func NewGate(open bool) *Gate {
	g := &Gate{}
	if !open {
		g.ch = make(chan struct{})
	}
	return g
}

// Open heals the partition; blocked I/O resumes.
func (g *Gate) Open() { g.Set(true) }

// Set moves the gate to the requested state (idempotent).
func (g *Gate) Set(open bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if open {
		if g.ch != nil {
			close(g.ch)
			g.ch = nil
		}
	} else if g.ch == nil {
		g.ch = make(chan struct{})
	}
}

func (g *Gate) waitOpen(deadline time.Time, cancel <-chan struct{}) error {
	for {
		select {
		case <-cancel:
			return net.ErrClosed
		default:
		}
		g.mu.Lock()
		ch := g.ch
		g.mu.Unlock()
		if ch == nil {
			return nil
		}
		var timerC <-chan time.Time
		var timer *time.Timer
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return os.ErrDeadlineExceeded
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case <-ch:
		case <-timerC:
		case <-cancel:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// FaultFlags holds the values of the -fault-* command-line flags shared by
// cmd/flserver and cmd/flclient.
type FaultFlags struct {
	latency   time.Duration
	jitter    time.Duration
	bandwidth float64
	drop      float64
	cut       int64
	partition time.Duration
	seed      uint64
}

// RegisterFaultFlags registers the -fault-* flags on fs and returns the
// holder; call Config after flag parsing to build the FaultConfig.
func RegisterFaultFlags(fs *flag.FlagSet) *FaultFlags {
	ff := &FaultFlags{}
	fs.DurationVar(&ff.latency, "fault-latency", 0, "inject a fixed delay before every socket write")
	fs.DurationVar(&ff.jitter, "fault-jitter", 0, "inject a random extra write delay, uniform in [0, jitter)")
	fs.Float64Var(&ff.bandwidth, "fault-bandwidth", 0, "cap injected link bandwidth in bytes/s (0 = unlimited)")
	fs.Float64Var(&ff.drop, "fault-drop", 0, "per-write probability the connection is killed")
	fs.Int64Var(&ff.cut, "fault-cut-after", 0, "hard-cut the connection after this many bytes written (0 = never)")
	fs.DurationVar(&ff.partition, "fault-partition", 0, "black-hole the link for this long after connect")
	fs.Uint64Var(&ff.seed, "fault-seed", 1, "fault-injection RNG seed")
	return ff
}

// Config builds the FaultConfig the parsed flags describe, or nil when no
// fault was requested. A -fault-partition duration becomes a gate that
// starts shut and heals itself after the configured time.
func (ff *FaultFlags) Config() *FaultConfig {
	cfg := &FaultConfig{
		Latency:       ff.latency,
		Jitter:        ff.jitter,
		Bandwidth:     ff.bandwidth,
		DropProb:      ff.drop,
		CutAfterBytes: ff.cut,
		Seed:          ff.seed,
	}
	if ff.partition > 0 {
		g := NewGate(false)
		time.AfterFunc(ff.partition, g.Open)
		cfg.Partition = g
	}
	if !cfg.Active() {
		return nil
	}
	return cfg
}
