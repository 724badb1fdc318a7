package rpc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"adafl/internal/obs"
)

// pipePeer returns a peer whose connection is one end of a net.Pipe, and
// the other end. net.Pipe is unbuffered: a write completes only when the
// far side reads it, so a peer that stops reading blocks an undeadlined
// sender forever — which is what makes the deadline tests below proofs
// rather than races against a socket buffer.
func pipePeer(id int) (*Peer, *Conn) {
	a, b := net.Pipe()
	return &Peer{ID: id, Conn: NewBinaryConn(a, nil)}, NewBinaryConn(b, nil)
}

// drainTypes reads c until it fails or is told to shut down, which it
// answers the way a client does, by closing; it reports the message types
// it saw.
func drainTypes(c *Conn) <-chan []MsgType {
	out := make(chan []MsgType, 1)
	go func() {
		var got []MsgType
		for {
			e, err := c.Recv()
			if err != nil {
				out <- got
				return
			}
			got = append(got, e.Type)
			if e.Type == MsgShutdown {
				c.Close()
			}
		}
	}()
	return out
}

func welcome() *Envelope { return &Envelope{Type: MsgWelcome} }

// TestRosterAdmitPolicy is the admission table: both duplicate-id rules
// against a closing roster, a live duplicate, the cap, a welcome that
// cannot be written, and a re-hello.
func TestRosterAdmitPolicy(t *testing.T) {
	for _, replace := range []bool{false, true} {
		t.Run(fmt.Sprintf("replace=%v", replace), func(t *testing.T) {
			reg := obs.NewRegistry()
			r := NewRoster(replace)
			r.Cap = 2
			r.Instrument(reg, "")
			reconnects := reg.Counter("adafl_reconnects_total")
			connections := reg.Gauge("adafl_connections")

			// admit runs Admit against a far end that reads everything.
			admit := func(id int) (*Peer, []MsgType, error) {
				p, far := pipePeer(id)
				seen := drainTypes(far)
				err := r.Admit(p, welcome())
				if err != nil {
					return p, <-seen, err // a refusal closes the connection
				}
				return p, nil, nil
			}

			p0, _, err := admit(0)
			if err != nil {
				t.Fatalf("first admission: %v", err)
			}

			// Duplicate: turned away under reject, takes over under replace.
			dup, got, err := admit(0)
			if replace {
				if err != nil || r.Peer(0) != dup {
					t.Fatalf("replace: duplicate not installed (err %v)", err)
				}
				if r.Remove(p0) {
					t.Error("replace: the displaced peer was still removable")
				}
				if _, werr := p0.Conn.raw.Write([]byte{0}); werr == nil {
					t.Error("replace: the displaced connection was left open")
				}
			} else {
				if err == nil || r.Peer(0) != p0 {
					t.Fatalf("reject: duplicate admitted (err %v)", err)
				}
				if len(got) != 1 || got[0] != MsgShutdown {
					t.Errorf("reject: duplicate was sent %v, want one shutdown notice", got)
				}
			}
			if n := r.Len(); n != 1 {
				t.Fatalf("%d peers after the duplicate, want 1", n)
			}

			// Cap: a second id fits, a third is turned away; a replacement
			// at the cap is not a new id.
			p1, _, err := admit(1)
			if err != nil {
				t.Fatalf("second id: %v", err)
			}
			if _, got, err := admit(2); err == nil || len(got) != 1 || got[0] != MsgShutdown {
				t.Errorf("third id at cap 2: err %v, sent %v", err, got)
			}
			if _, _, err := admit(1); replace != (err == nil) {
				t.Errorf("duplicate at the cap: err %v", err)
			}
			if replace {
				p1 = r.Peer(1)
			}

			// A welcome that cannot be written rolls the admission back.
			r.Remove(p1)
			dead, _ := pipePeer(1)
			dead.Conn.Close() // the write fails at once
			if err := r.Admit(dead, welcome()); err == nil || r.Peer(1) != nil {
				t.Errorf("failed welcome: err %v, peer still registered: %v", err, r.Peer(1) != nil)
			}

			// Re-hello of an id seen before is a registration and a reconnect.
			regs, rc := reg.Counter("adafl_registrations_total").Value(), reconnects.Value()
			if _, _, err := admit(1); err != nil {
				t.Fatalf("re-hello: %v", err)
			}
			if got := reg.Counter("adafl_registrations_total").Value(); got != regs+1 || reconnects.Value() != rc+1 {
				t.Errorf("re-hello: registrations %d -> %d, reconnects %d -> %d", regs, got, rc, reconnects.Value())
			}
			if got, want := connections.Value(), float64(r.Len()); got != want {
				t.Errorf("connections gauge %v, roster holds %v", got, want)
			}

			// Closing: everyone is turned away with a notice.
			r.Shutdown("over", time.Second)
			if _, got, err := admit(9); err == nil || len(got) != 1 || got[0] != MsgShutdown {
				t.Errorf("closing roster: err %v, sent %v", err, got)
			}
			if connections.Value() != 0 {
				t.Errorf("connections gauge %v after shutdown", connections.Value())
			}
		})
	}
}

func TestRosterRemoveFoldsBytesOnce(t *testing.T) {
	r := NewRoster(false)
	p, far := pipePeer(3)
	seen := drainTypes(far)
	if err := r.Admit(p, welcome()); err != nil {
		t.Fatal(err)
	}
	_, down := r.Bytes()
	if down == 0 {
		t.Fatal("the welcome's bytes are not in the live total")
	}
	if !r.Remove(p) || r.Remove(p) {
		t.Fatal("Remove must report true exactly once")
	}
	<-seen
	if _, again := r.Bytes(); again != down {
		t.Errorf("downlink total %d after two removes, want %d", again, down)
	}
	if r.Len() != 0 {
		t.Error("removed peer still on the roster")
	}
}

func TestRosterSnapshotAscending(t *testing.T) {
	r := NewRoster(false)
	for _, id := range []int{7, 2, 9, 0, 4} {
		p, far := pipePeer(id)
		drainTypes(far)
		if err := r.Admit(p, welcome()); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	for i, want := range []int{0, 2, 4, 7, 9} {
		if snap[i].ID != want {
			t.Fatalf("snapshot order %v at %d, want %d", snap[i].ID, i, want)
		}
		if FindPeer(snap, want) != snap[i] {
			t.Errorf("FindPeer(%d) missed", want)
		}
	}
	if FindPeer(snap, 5) != nil {
		t.Error("FindPeer found an id that is not there")
	}
	r.Kill()
}

func TestRosterKillSendsNothing(t *testing.T) {
	r := NewRoster(false)
	var fars []<-chan []MsgType
	for id := 0; id < 3; id++ {
		p, far := pipePeer(id)
		fars = append(fars, drainTypes(far))
		if err := r.Admit(p, welcome()); err != nil {
			t.Fatal(err)
		}
	}
	r.Kill()
	for id, far := range fars {
		if got := <-far; len(got) != 1 || got[0] != MsgWelcome {
			t.Errorf("peer %d saw %v across a Kill, want the welcome and nothing else", id, got)
		}
	}
	if !r.Killed() || r.Len() != 0 {
		t.Errorf("after Kill: killed=%v len=%d", r.Killed(), r.Len())
	}
	if err := r.Wait(1); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Wait on a killed roster: %v", err)
	}
}

// TestRosterServe covers the accept loop: a hello is admitted through the
// callback, a closed listener ends Serve with its error, logged, and wakes
// Wait, and a Kill ends it cleanly with the mid-handshake connection
// closed.
func TestRosterServe(t *testing.T) {
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	logged := make(chan string, 1)
	serve := func(r *Roster, ln net.Listener) <-chan error {
		done := make(chan error, 1)
		go func() {
			done <- r.Serve(ln, MsgHello, func(c *Conn, h *Envelope) {
				r.Admit(&Peer{ID: h.ClientID, Conn: c, Samples: h.NumSamples}, welcome())
			}, func(format string, args ...interface{}) { logged <- fmt.Sprintf(format, args...) })
		}()
		return done
	}

	r, ln := NewRoster(false), listen()
	done := serve(r, ln)
	c, err := Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Envelope{Type: MsgHello, ClientID: 5, NumSamples: 11}); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(1); err != nil {
		t.Fatal(err)
	}
	if p := r.Peer(5); p == nil || p.Samples != 11 {
		t.Fatalf("hello not admitted: %+v", p)
	}
	// The listener fails under it: Serve reports it and Wait stops waiting.
	ln.Close()
	if err := <-done; err == nil {
		t.Error("Serve returned nil for a listener that failed under it")
	}
	select {
	case line := <-logged:
		if !strings.Contains(line, "accept loop on "+ln.Addr().String()+" ended") {
			t.Errorf("failure logged as %q", line)
		}
	default:
		t.Error("Serve did not log the listener's failure")
	}
	if err := r.Wait(2); err == nil {
		t.Error("Wait kept waiting on a roster whose listener failed")
	}
	r.Kill()

	// Kill: a silent connection is mid-handshake; Serve returns nil and
	// the silent connection is closed rather than waited out.
	r, ln = NewRoster(false), listen()
	done = serve(r, ln)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	time.Sleep(20 * time.Millisecond) // let the accept loop take it
	start := time.Now()
	r.Kill()
	if err := <-done; err != nil {
		t.Errorf("Serve after Kill: %v", err)
	}
	if d := time.Since(start); d > helloTimeout/2 {
		t.Errorf("Kill waited %v for a silent handshake", d)
	}
	raw.SetReadDeadline(time.Now().Add(time.Second))
	var ne net.Error
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("mid-handshake connection still open after Kill: %v", err)
	}
	// A listener handed to a dead roster is closed, not served.
	late := listen()
	if err := r.Serve(late, MsgHello, nil, nil); err != nil {
		t.Errorf("Serve on a killed roster: %v", err)
	}
	if _, err := late.Accept(); err == nil {
		t.Error("a killed roster left its late listener open")
	}
}

// flakyListener answers its next fails calls to Accept with EMFILE, the
// error a process out of descriptors gets, then accepts from the real
// listener.
type flakyListener struct {
	net.Listener
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestRosterServeRetriesTemporaryAcceptErrors: a temporary accept error
// does not end admission — the next hello is still admitted — and Kill
// cuts the retry wait short.
func TestRosterServeRetriesTemporaryAcceptErrors(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRoster(false)
	done := make(chan error, 1)
	go func() {
		done <- r.Serve(&flakyListener{Listener: tcp, fails: 1}, MsgHello, func(c *Conn, h *Envelope) {
			r.Admit(&Peer{ID: h.ClientID, Conn: c}, welcome())
		}, nil)
	}()
	c, err := Dial("tcp", tcp.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Envelope{Type: MsgHello, ClientID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(1); err != nil || r.Peer(3) == nil {
		t.Fatalf("hello after a temporary accept error not admitted: %v", err)
	}
	r.Kill()
	if err := <-done; err != nil {
		t.Errorf("Serve after Kill: %v", err)
	}

	// A listener that keeps failing: Kill ends the wait between retries.
	r = NewRoster(false)
	go func() {
		done <- r.Serve(&flakyListener{Listener: tcp, fails: 1 << 30}, MsgHello, nil, nil)
	}()
	time.Sleep(50 * time.Millisecond) // a few retries in
	start := time.Now()
	r.Kill()
	if err := <-done; err != nil {
		t.Errorf("Serve after Kill: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Kill waited %v for the accept retry", d)
	}
}

// TestExchangeAndShutdownSilentPeer is the unbounded-write proof over
// net.Pipe: one peer of three never reads. Exchange returns within its
// deadline with that peer failed and the others served (reply type and
// round checked); Shutdown returns within its own with the others
// farewelled.
func TestExchangeAndShutdownSilentPeer(t *testing.T) {
	const round = 4
	r := NewRoster(false)
	var peers []*Peer
	fars := map[int]*Conn{}
	for id := 0; id < 4; id++ {
		p, far := pipePeer(id)
		r.peers[id] = p // no welcome: the silent peer would block it
		peers = append(peers, p)
		fars[id] = far
	}
	// 0 answers properly, 1 is silent, 2 answers for the wrong round,
	// 3 gets the message but is not asked for a reply.
	answer := func(far *Conn, id, round int) {
		if _, err := far.Recv(); err == nil {
			far.Send(&Envelope{Type: MsgScore, ClientID: id, Round: round, Score: 0.5})
		}
	}
	go answer(fars[0], 0, round)
	go answer(fars[2], 2, round-1)
	got3 := make(chan MsgType, 1)
	go func() {
		if e, err := fars[3].Recv(); err == nil {
			got3 <- e.Type
		}
	}()

	const deadline = 150 * time.Millisecond
	start := time.Now()
	errs := Exchange(peers, round, MsgScore, deadline, deadline, func(p *Peer) (Message, bool) {
		return &Envelope{Type: MsgSelect, Round: round}, p.ID != 3
	})
	if d := time.Since(start); d > 4*deadline {
		t.Fatalf("Exchange took %v against a %v deadline", d, deadline)
	}
	if errs[0] != nil || peers[0].Env.Type != MsgScore || peers[0].Env.Score != 0.5 {
		t.Errorf("responsive peer: err %v, env %+v", errs[0], peers[0].Env)
	}
	if errs[1] == nil {
		t.Error("silent peer not reported failed")
	}
	if errs[2] == nil {
		t.Error("a reply for another round passed the round check")
	}
	if errs[3] != nil || <-got3 != MsgSelect {
		t.Errorf("no-reply peer: err %v", errs[3])
	}

	// Shutdown: 0 reads its farewell and closes; 1 stays silent.
	farewell := make(chan MsgType, 1)
	go func() {
		e, err := fars[0].Recv()
		fars[0].Close()
		if err == nil {
			farewell <- e.Type
		}
	}()
	r.Remove(peers[2])
	r.Remove(peers[3])
	start = time.Now()
	r.Shutdown("bye", deadline)
	if d := time.Since(start); d > 4*deadline {
		t.Fatalf("Shutdown took %v against a %v farewell deadline", d, deadline)
	}
	if got := <-farewell; got != MsgShutdown {
		t.Errorf("responsive peer got %v, want the farewell", got)
	}
	if r.Len() != 0 {
		t.Errorf("%d peers left after Shutdown", r.Len())
	}
}

func TestRedial(t *testing.T) {
	fail := errors.New("link down")
	// Budget: N consecutive failures after the first attempt, then the error.
	attempts := 0
	var waits []time.Duration
	err := Redial(3, time.Millisecond, nil,
		func() (bool, bool, error) { attempts++; return false, false, fail },
		func(retry int, wait time.Duration, err error) { waits = append(waits, wait) })
	if err != fail || attempts != 4 {
		t.Errorf("budget 3: %d attempts, err %v; want 4 and the link error", attempts, err)
	}
	// nil RNG: the pure exponential schedule.
	for i, want := range []time.Duration{1, 2, 4} {
		if waits[i] != want*time.Millisecond {
			t.Errorf("wait %d = %v, want %v", i, waits[i], want*time.Millisecond)
		}
	}

	// Progress refills the budget and resets the window.
	attempts, waits = 0, nil
	err = Redial(2, time.Millisecond, nil,
		func() (bool, bool, error) {
			attempts++
			return attempts == 7, attempts%2 == 0, fail // every second attempt carried traffic
		},
		func(retry int, wait time.Duration, err error) {
			waits = append(waits, wait)
			if retry > 2 {
				t.Errorf("retry %d of a budget of 2", retry)
			}
		})
	if err != fail || attempts != 7 {
		t.Errorf("with progress: %d attempts, err %v; want all 7 (done returns its error)", attempts, err)
	}
	for _, w := range waits {
		if w > 2*time.Millisecond {
			t.Errorf("window grew to %v despite progress every other attempt", w)
		}
	}

	// A wire-version mismatch and a protocol violation end it after one dial.
	for _, permanent := range []error{
		fmt.Errorf("handshake: %w", ErrWireVersion),
		fmt.Errorf("bad frame: %w", errProtocol),
	} {
		attempts = 0
		err = Redial(8, time.Millisecond, nil,
			func() (bool, bool, error) { attempts++; return false, false, permanent }, nil)
		if err != permanent || attempts != 1 {
			t.Errorf("%v: %d attempts, err %v", permanent, attempts, err)
		}
	}

	// A clean farewell is nil.
	if err := Redial(0, 0, nil, func() (bool, bool, error) { return true, true, nil }, nil); err != nil {
		t.Errorf("clean exit: %v", err)
	}
}
