package rpc

import (
	"errors"
	"flag"
	"net"
	"os"
	"sync"
	"time"

	"adafl/internal/netsim"
	"adafl/internal/stats"
)

// FaultConfig puts a client's connections on a link, the simulator's own
// description (netsim.Link), and adds the two fault events a link cannot
// state: abrupt death mid-message, and partitions that start and heal at
// chosen points in the session.
type FaultConfig struct {
	// Link paces every connection the client dials (nil = unpaced). Its
	// UpBps/DownBps are the client's base rates; a scenario moves them
	// per round (ClientConfig.Bandwidth).
	Link *netsim.Link
	// CutAfterBytes hard-closes the connection once this many bytes have
	// been written — usually mid-message, leaving the peer a truncated
	// frame (0 = never).
	CutAfterBytes int64
	// Partition, when non-nil, black-holes reads and writes while shut.
	// Toggle it with Gate.Set/Gate.Open to model partitions that start
	// and heal at chosen points in the session.
	Partition *Gate
}

// Errors surfaced by injected faults. They reach the peer as ordinary
// connection errors, which is the point: the protocol layer must not be
// able to tell injected failures from real ones.
var (
	ErrInjectedDrop = errors.New("rpc: fault injection: connection dropped")
	ErrInjectedCut  = errors.New("rpc: fault injection: connection cut mid-stream")
)

// pacer holds the link a client session's connections are paced on. The
// session moves its rates each round and every connection it dials reads
// them, so the rates outlive a redial.
type pacer struct {
	mu   sync.Mutex
	link netsim.Link
}

func (p *pacer) setRates(up, down float64) {
	p.mu.Lock()
	p.link.UpBps, p.link.DownBps = up, down
	p.mu.Unlock()
}

func (p *pacer) get() netsim.Link {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.link
}

// linkRNG is the loss and jitter stream of a session's dial-th
// connection: a function of the client's seed and its own dial count
// only, so a client's fault sequence does not depend on what else the
// process dialled. Distinct dials draw distinct sequences — otherwise a
// loss on a fresh connection's first transfer would kill every redial.
func linkRNG(seed uint64, dial int) *stats.RNG {
	r := stats.NewRNG(seed ^ 0xfa175eed)
	r.Skip(uint64(dial))
	return r.Split()
}

// wrapFault layers link pacing (link non-nil) and f's cut and partition
// under raw; rng draws the link's losses and jitter. It returns raw
// unchanged when there is nothing to inject, so the healthy path stays
// wrapper-free.
//
// Pacing follows the simulator's arithmetic on the wall clock, t seconds
// after the wrap. A transfer is the run of writes between two reads — one
// protocol message in this request/response protocol, however many
// buffered chunks carry it. Its first write draws
// Link.TransferTime(Uplink, 0, t): a loss kills the connection with
// ErrInjectedDrop, and the latency plus jitter is charged once. Every
// write then waits n/up(t) and every read n/down(t), each direction on
// its own busy-until clock, with no burst allowance.
func wrapFault(raw net.Conn, f *FaultConfig, link *pacer, rng *stats.RNG) net.Conn {
	if link == nil && (f == nil || (f.CutAfterBytes <= 0 && f.Partition == nil)) {
		return raw
	}
	now := time.Now()
	c := &faultConn{Conn: raw, link: link, start: now, rng: rng, fresh: true,
		up: busyClock{now, now}, down: busyClock{now, now}, closed: make(chan struct{})}
	if f != nil {
		c.cutAfter, c.gate = f.CutAfterBytes, f.Partition
	}
	return c
}

// busyClock is one direction of a paced link. busy is when the bytes
// handed to it so far have crossed; woke is when the wrapper's last wait
// on it actually returned. The gap between woke and the next call is the
// caller's: the link idles through it, but not through the timer's own
// overshoot past busy.
type busyClock struct {
	busy, woke time.Time
}

// charge schedules d of link time starting now and returns when it ends.
func (b *busyClock) charge(now time.Time, d float64) time.Time {
	b.busy = b.busy.Add(now.Sub(b.woke) + time.Duration(d*float64(time.Second)))
	b.woke = now
	return b.busy
}

// faultConn implements net.Conn on a paced link with the cut and
// partition events. Every wait is a timer raced against the read or
// write deadline and Close.
type faultConn struct {
	net.Conn
	link     *pacer
	cutAfter int64
	gate     *Gate
	start    time.Time

	mu       sync.Mutex // guards rng, fresh, up, down, written, dead
	rng      *stats.RNG
	fresh    bool // the next write starts a transfer
	up, down busyClock
	written  int64
	dead     bool

	readMu    sync.Mutex // serialises Read; guards held
	held      []byte     // read off the wire, not yet delivered
	heldUntil time.Time

	dlMu          sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// Read delivers bytes once the downlink has carried them and the
// partition gate is open. A read does not start while the gate is shut,
// and bytes that arrive under a read already in flight when it shuts are
// held, not delivered: a deadline that ends the wait keeps them for the
// next Read.
func (c *faultConn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	var n int
	var until time.Time
	var err error
	if len(c.held) > 0 {
		n, until = copy(p, c.held), c.heldUntil
	} else {
		if c.gate != nil {
			if err := c.gate.waitOpen(c.deadline(true), c.closed); err != nil {
				return 0, err
			}
		}
		if n, err = c.Conn.Read(p); n == 0 {
			return 0, err
		}
		if c.link != nil {
			now := time.Now()
			_, down := c.link.get().Bandwidths(now.Sub(c.start).Seconds())
			c.mu.Lock()
			until = c.down.charge(now, float64(n)/down)
			c.mu.Unlock()
		}
	}
	if werr := c.await(until, c.deadline(true), &c.down); werr != nil {
		if len(c.held) == 0 {
			c.held, c.heldUntil = append([]byte(nil), p[:n]...), until
		}
		return 0, werr
	}
	if len(c.held) > 0 {
		c.held = c.held[n:]
	}
	c.mu.Lock()
	c.fresh = true
	c.mu.Unlock()
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	m := len(p)
	cut := c.cutAfter > 0 && c.cutAfter-c.written < int64(m)
	if cut {
		m = int(max(c.cutAfter-c.written, 0))
	}
	var until time.Time
	lost := false
	if c.link != nil {
		now := time.Now()
		l := c.link.get()
		t := now.Sub(c.start).Seconds()
		d := 0.0
		if c.fresh {
			c.fresh = false
			d, lost = l.TransferTime(netsim.Uplink, 0, t, c.rng)
		}
		up, _ := l.Bandwidths(t)
		until = c.up.charge(now, d+float64(m)/up)
	}
	c.dead = cut || lost
	c.mu.Unlock()

	if lost {
		c.Close()
		return 0, ErrInjectedDrop
	}
	if err := c.await(until, c.deadline(false), &c.up); err != nil {
		return 0, err
	}
	if cut {
		n := 0
		if m > 0 {
			n, _ = c.Conn.Write(p[:m])
		}
		c.Close()
		return n, ErrInjectedCut
	}
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	return n, err
}

// await waits for the link to carry what was charged to clock (until),
// then for the partition gate, and records when the link wait returned.
func (c *faultConn) await(until, deadline time.Time, clock *busyClock) error {
	if !until.IsZero() {
		if err := wait(nil, until, deadline, c.closed); err != nil {
			return err
		}
		c.mu.Lock()
		clock.woke = time.Now()
		c.mu.Unlock()
	}
	if c.gate == nil {
		return nil
	}
	return c.gate.waitOpen(deadline, c.closed)
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

// wait blocks until ch closes or until passes (a nil ch or a zero until
// never comes). It fails with os.ErrDeadlineExceeded if a non-zero
// deadline comes first and with net.ErrClosed if cancel closes first.
func wait(ch <-chan struct{}, until, deadline time.Time, cancel <-chan struct{}) error {
	var expired error
	if !deadline.IsZero() && (until.IsZero() || deadline.Before(until)) {
		until, expired = deadline, os.ErrDeadlineExceeded
	}
	var timeout <-chan time.Time
	if !until.IsZero() {
		timer := time.NewTimer(time.Until(until))
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-ch:
		return nil
	case <-timeout:
		return expired
	case <-cancel:
		return net.ErrClosed
	}
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
		g.mu.Lock()
		ch := g.ch
		g.mu.Unlock()
		if ch == nil {
			return nil
		}
		if err := wait(ch, time.Time{}, deadline, cancel); err != nil {
			return err
		}
	}
}

// FaultFlags holds the values of flclient's -fault-* flags: the two
// events a link cannot state.
type FaultFlags struct {
	cut       int64
	partition time.Duration
}

// RegisterFaultFlags registers the -fault-* flags on fs and returns the
// holder; call Config after flag parsing to build the FaultConfig.
func RegisterFaultFlags(fs *flag.FlagSet) *FaultFlags {
	ff := &FaultFlags{}
	fs.Int64Var(&ff.cut, "fault-cut-after", 0, "hard-cut the connection after this many bytes written (0 = never)")
	fs.DurationVar(&ff.partition, "fault-partition", 0, "black-hole the link for this long after connect")
	return ff
}

// Config builds the FaultConfig for a client on link (nil = unpaced) with
// the parsed fault events, or nil when there is nothing to inject. A
// -fault-partition duration becomes a gate that starts shut and heals
// itself after the configured time.
func (ff *FaultFlags) Config(link *netsim.Link) *FaultConfig {
	if link == nil && ff.cut <= 0 && ff.partition <= 0 {
		return nil
	}
	cfg := &FaultConfig{Link: link, CutAfterBytes: ff.cut}
	if ff.partition > 0 {
		cfg.Partition = NewGate(false)
		time.AfterFunc(ff.partition, cfg.Partition.Open)
	}
	return cfg
}
