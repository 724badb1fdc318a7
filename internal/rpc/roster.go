package rpc

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"adafl/internal/obs"
)

// farewellGrace bounds the notice to a peer being turned away (Reject) and
// the drain after a farewell, while the peer reads it and closes (Shutdown).
const farewellGrace = 5 * time.Second

// Peer is one admitted connection. The engine that admits it fills ID,
// Conn, Samples and Ext.
type Peer struct {
	ID      int
	Conn    *Conn
	Samples int // a client's sample count (the hello's NumSamples), where the engine weighs by it
	// Env is the receive scratch Exchange owns: a reply and its payloads
	// stay valid until the next Exchange that asks this peer for one, so a
	// round that holds its updates back to a barrier copies nothing.
	Env Envelope
	Ext any // the engine's own per-peer state; the roster never reads it

	gone bool // removed, bytes folded (under Roster.mu)
}

// Roster is the connection plane of one engine: the accept loops, the
// admitted peers, the goroutines that read them, the byte totals and both
// ways out. The flat server, the async session, the edge and the root each
// hold one (the session manager too, for its listener alone); they differ
// in the duplicate-id rule and in what they do with a peer once it is in.
type Roster struct {
	// Cap is the admission cap (0 = none) on new ids; a replacement is not
	// one. Set before the first Admit.
	Cap int

	replace bool

	mu       sync.Mutex
	cond     *sync.Cond // admit, close, listener failure
	peers    map[int]*Peer
	seen     map[int]bool // ids that registered at least once
	lns      []net.Listener
	inflight map[net.Conn]struct{} // accepted, not yet admitted or refused
	tasks    sync.WaitGroup        // accept loops, handshakes, Go readers; Add only under mu while open
	closing  bool
	killed   bool
	done     chan struct{}
	serveErr error
	up, down int64 // bytes of removed peers

	registrations, reconnects *obs.Counter
	connections               *obs.Gauge
}

// NewRoster returns an open roster. replace is the duplicate-id rule: false
// turns a hello for a live id away (flat server, async session: a second
// client claiming an id is a misconfiguration), true lets it take the old
// connection's place (edge, root: their peers redial while the old socket
// may not have failed yet).
func NewRoster(replace bool) *Roster {
	r := &Roster{
		replace:  replace,
		peers:    map[int]*Peer{},
		seen:     map[int]bool{},
		inflight: map[net.Conn]struct{}{},
		done:     make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Instrument resolves the roster's series — registrations, reconnects (a
// re-hello of a known id), open connections — under a session label when
// session is non-empty. Call before the first Admit.
func (r *Roster) Instrument(reg *obs.Registry, session string) {
	r.registrations = reg.Counter(obs.WithLabel("adafl_registrations_total", "session", session))
	r.reconnects = reg.Counter(obs.WithLabel("adafl_reconnects_total", "session", session))
	r.connections = reg.Gauge(obs.WithLabel("adafl_connections", "session", session))
}

// Serve is the accept loop. Each connection is handshaken (Accept, behind
// fault when non-nil) on its own goroutine and, if its first frame is a
// want, handed to admit, which ends in Admit or Reject. Serve returns nil
// once Kill or Shutdown has closed ln, else the listener's error, which
// Wait reports too. One roster may serve several listeners.
func (r *Roster) Serve(ln net.Listener, want MsgType, fault *FaultConfig, admit func(*Conn, *Envelope)) error {
	r.mu.Lock()
	r.lns = append(r.lns, ln)
	if r.closing {
		r.mu.Unlock()
		ln.Close()
		return nil
	}
	r.tasks.Add(1) // Kill and Shutdown join the loop too
	r.mu.Unlock()
	defer r.tasks.Done()
	for {
		raw, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.closing {
				return nil
			}
			r.serveErr = err
			r.cond.Broadcast()
			return err
		}
		r.mu.Lock()
		tracked := r.goLocked(func() {
			if conn, hello, err := Accept(WrapFault(raw, fault), want); err == nil {
				admit(conn, hello)
			}
			r.mu.Lock()
			delete(r.inflight, raw)
			r.mu.Unlock()
		})
		if tracked {
			r.inflight[raw] = struct{}{}
		}
		r.mu.Unlock()
		if !tracked {
			raw.Close()
		}
	}
}

// Go runs f — an engine's per-peer reader — on a goroutine Kill and
// Shutdown wait for; once either has begun it runs nothing and reports
// false. f must return when its connection fails.
func (r *Roster) Go(f func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.goLocked(f)
}

func (r *Roster) goLocked(f func()) bool {
	if r.closing {
		return false
	}
	r.tasks.Add(1)
	go func() {
		defer r.tasks.Done()
		f()
	}()
	return true
}

// Reject turns a connection away: a shutdown notice saying why, under a
// deadline so a peer that stops reading cannot pin the caller, then close.
func Reject(conn *Conn, why string) {
	conn.SendWithin(farewellGrace, &Envelope{Type: MsgShutdown, Info: why})
	conn.Close()
}

// Admit applies the admission policy: a closing roster, a live duplicate
// under the reject rule and a new id at the cap Reject p, and the error
// says why. Otherwise p is installed (under the replace rule the peer it
// displaces is removed), the registration counted, and welcome — nil for
// the edge's fleet protocol, which has none — written under the handshake
// deadline; a welcome that cannot be written rolls the admission back.
func (r *Roster) Admit(p *Peer, welcome *Envelope) error {
	r.mu.Lock()
	old := r.peers[p.ID]
	why := ""
	switch {
	case r.closing:
		why = "session over"
	case old != nil && !r.replace:
		why = fmt.Sprintf("duplicate client id %d", p.ID)
	case old == nil && r.Cap > 0 && len(r.peers) >= r.Cap:
		why = fmt.Sprintf("session full (%d clients)", r.Cap)
	}
	if why != "" {
		r.mu.Unlock()
		Reject(p.Conn, why)
		return fmt.Errorf("rpc: %s", why)
	}
	if old != nil {
		r.removeLocked(old)
	}
	r.peers[p.ID] = p
	r.registrations.Inc()
	if r.seen[p.ID] {
		r.reconnects.Inc()
	}
	r.seen[p.ID] = true
	r.connections.Add(1)
	r.cond.Broadcast()
	r.mu.Unlock()
	if old != nil {
		old.Conn.Close()
	}
	// Outside the lock: a stalled peer must not hold up a round. The round
	// may already be talking to p, so the welcome can trail the first
	// broadcast; clients expect that.
	if welcome == nil {
		return nil
	}
	if err := p.Conn.SendWithin(helloTimeout, welcome); err != nil {
		r.Remove(p)
		return fmt.Errorf("rpc: welcome client %d: %w", p.ID, err)
	}
	return nil
}

// Remove closes p, takes it off the roster and folds its byte counters
// into the totals. Idempotent: it reports whether this call did the
// removing, false for a repeat or for a peer already replaced.
func (r *Roster) Remove(p *Peer) bool {
	p.Conn.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.removeLocked(p)
}

func (r *Roster) removeLocked(p *Peer) bool {
	if p.gone {
		return false
	}
	p.gone = true
	if r.peers[p.ID] == p {
		delete(r.peers, p.ID)
	}
	r.up += p.Conn.BytesReceived()
	r.down += p.Conn.BytesSent()
	r.connections.Add(-1)
	return true
}

// Peer returns the live peer registered under id, or nil.
func (r *Roster) Peer(id int) *Peer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peers[id]
}

// Len is the number of live peers.
func (r *Roster) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.peers)
}

// Snapshot returns the live peers in ascending id, the order every engine
// screens and folds in.
func (r *Roster) Snapshot() []*Peer {
	r.mu.Lock()
	out := make([]*Peer, 0, len(r.peers))
	for _, p := range r.peers {
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FindPeer returns the peer with the given id in a Snapshot, or nil.
func FindPeer(peers []*Peer, id int) *Peer {
	i := sort.Search(len(peers), func(i int) bool { return peers[i].ID >= id })
	if i < len(peers) && peers[i].ID == id {
		return peers[i]
	}
	return nil
}

// Bytes returns the wire volume received (up) and sent (down): removed
// peers' folded totals plus the live connections'.
func (r *Roster) Bytes() (up, down int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	up, down = r.up, r.down
	for _, p := range r.peers {
		up += p.Conn.BytesReceived()
		down += p.Conn.BytesSent()
	}
	return up, down
}

// Wait blocks until n peers are live, a Serve fails (its error), or Kill
// or Shutdown begins (net.ErrClosed).
func (r *Roster) Wait(n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.peers) < n && r.serveErr == nil && !r.closing {
		r.cond.Wait()
	}
	if r.closing {
		return net.ErrClosed
	}
	return r.serveErr
}

// Exchange is the one timed phase. Concurrently, each peer is sent out(p)
// under a write deadline of send and, if out asks for a reply, must answer
// within recv with a want-typed message for round, which lands in p.Env.
// errs[i] is peers[i]'s failure (nil: served); evicting is the caller's
// business. out runs on the caller's goroutine, in peers order.
func Exchange(peers []*Peer, round int, want MsgType, send, recv time.Duration,
	out func(*Peer) (msg *Envelope, reply bool)) (errs []error) {
	errs = make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		msg, reply := out(p)
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			if errs[i] = p.Conn.SendWithin(send, msg); errs[i] != nil || !reply {
				return
			}
			p.Conn.SetReadDeadline(time.Now().Add(recv))
			if errs[i] = p.Conn.RecvInto(&p.Env); errs[i] == nil && (p.Env.Type != want || p.Env.Round != round) {
				errs[i] = fmt.Errorf("expected message type %d for round %d, got type %d for round %d",
					want, round+1, p.Env.Type, p.Env.Round+1)
			}
		}(i, p)
	}
	wg.Wait()
	return errs
}

// Done is closed when Kill or Shutdown begins; from then on a Go reader
// hands its engine nothing and only discards.
func (r *Roster) Done() <-chan struct{} { return r.done }

// Killed reports whether Kill ended the roster.
func (r *Roster) Killed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.killed
}

// close marks the roster closing (first caller wins), closes its listeners
// and returns the peers.
func (r *Roster) close(killed bool) []*Peer {
	r.mu.Lock()
	if !r.closing {
		r.closing, r.killed = true, killed
		close(r.done)
		r.cond.Broadcast()
	}
	lns := r.lns
	r.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	return r.Snapshot()
}

// finish closes what is still mid-handshake and joins every task.
func (r *Roster) finish() {
	r.mu.Lock()
	for raw := range r.inflight {
		raw.Close()
	}
	r.mu.Unlock()
	r.tasks.Wait()
}

// Kill is the crash: listeners, handshakes and peers closed, no farewell,
// every goroutine the roster started joined. Not for a Go reader or an
// admit callback to call.
func (r *Roster) Kill() {
	for _, p := range r.close(true) {
		r.Remove(p)
	}
	r.finish()
}

// Shutdown is the clean exit. Registrations are turned away from here on;
// each peer is sent the farewell under its own write deadline of timeout
// (not what the last phase left on the socket) and then read, the frames
// discarded, until it closes or farewellGrace passes — closing a socket
// that holds unread bytes resets it, and a reset destroys a farewell the
// peer has not read. An engine's own reader discards alongside; a frame
// goes whole to one or the other. Same restriction as Kill.
func (r *Roster) Shutdown(info string, timeout time.Duration) {
	var wg sync.WaitGroup
	for _, p := range r.close(false) {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			if p.Conn.SendWithin(timeout, &Envelope{Type: MsgShutdown, Info: info}) == nil {
				p.Conn.SetReadDeadline(time.Now().Add(farewellGrace))
				for p.Conn.RecvInto(&p.Env) == nil {
				}
			}
			r.Remove(p)
		}(p)
	}
	wg.Wait()
	r.finish()
}
