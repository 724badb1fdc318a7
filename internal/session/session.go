// Package session is the multi-session control plane: one TCP listener
// multiplexing N named buffered-asynchronous FedBuff sessions
// (AsyncSession). The manager owns the socket, admits each connection
// (rpc.Accept: handshake and registration hello) and routes it by the
// hello's Session field — "" targets the default session, so
// single-session clients interoperate unchanged. Each session is an
// independent engine with its own global model, aggregator state,
// quarantine log and (session-labeled) metrics.
//
// Isolation contract: sessions share only the listener, the hello
// router and (optionally) one obs.Registry, whose series are disjoint by
// session label. An update, eviction or quarantine in one session cannot
// perturb another session's aggregation — pinned bitwise by
// TestMultiSessionIsolation.
package session

import (
	"fmt"
	"log"
	"net"
	"sync"

	"adafl/internal/rpc"
)

// DefaultSession is the session name an empty hello Session routes to.
const DefaultSession = "default"

// maxSessionName is the wire limit: the binary hello carries the session
// name behind a one-byte length.
const maxSessionName = 255

// Config configures a Manager.
type Config struct {
	// Addr is the listen address, e.g. ":7070".
	Addr string
	// Wire accepts only "" or rpc.WireBinary and selects nothing (see
	// rpc.WireBinary); any other value is an error.
	Wire string
	// Fault, when non-nil, wraps every accepted connection with injected
	// link faults.
	Fault *rpc.FaultConfig
	// Logf receives progress lines (log.Printf if nil).
	Logf func(format string, args ...interface{})
}

// Manager multiplexes one listener across named sessions. Register the
// sessions, start Serve in a goroutine, then run each session's engine;
// Close stops accepting and ends in-flight handshakes.
type Manager struct {
	cfg      Config
	listener net.Listener
	// plane is the listener's accept loop and its in-flight handshakes; it
	// holds no peers, since every admitted connection goes to a session.
	plane *rpc.Roster

	mu       sync.Mutex
	sessions map[string]*AsyncSession
}

// NewManager binds the listen socket and returns the manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Wire != "" && cfg.Wire != rpc.WireBinary {
		return nil, fmt.Errorf("session: unknown wire codec %q (want %q)", cfg.Wire, rpc.WireBinary)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, listener: ln, plane: rpc.NewRoster(false), sessions: map[string]*AsyncSession{}}, nil
}

// Register adds a named session ("" registers the default session).
// Registration is allowed while Serve is live — a control plane can
// admit new sessions without dropping the listener.
func (m *Manager) Register(name string, a *AsyncSession) error {
	if name == "" {
		name = DefaultSession
	}
	if len(name) > maxSessionName {
		return fmt.Errorf("session: name %q exceeds %d bytes", name, maxSessionName)
	}
	if a == nil {
		return fmt.Errorf("session: nil session for %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sessions[name]; dup {
		return fmt.Errorf("session: %q already registered", name)
	}
	m.sessions[name] = a
	return nil
}

// Addr returns the bound listen address.
func (m *Manager) Addr() string { return m.listener.Addr().String() }

// Serve accepts and routes connections until Close. It returns nil after
// a Close, or the terminal listener error.
func (m *Manager) Serve() error {
	return m.plane.Serve(m.listener, rpc.MsgHello, m.cfg.Fault, m.route)
}

// route hands an admitted connection to the session its hello names.
// Rejections (unknown session, engine refusal) are the engine's or the
// notice's problem — the router never blocks the accept loop.
func (m *Manager) route(conn *rpc.Conn, hello *rpc.Envelope) {
	name := hello.Session
	if name == "" {
		name = DefaultSession
	}
	m.mu.Lock()
	a := m.sessions[name]
	m.mu.Unlock()
	if a == nil {
		m.cfg.Logf("session: rejecting client %d: unknown session %q", hello.ClientID, name)
		rpc.Reject(conn, fmt.Sprintf("unknown session %q", name))
		return
	}
	if err := a.deliver(conn, hello); err != nil {
		m.cfg.Logf("session: %q declined client %d: %v", name, hello.ClientID, err)
	}
}

// Close stops accepting, ends the handshakes still in flight and returns
// when their goroutines have. Registered sessions keep running; shut them
// down through their own engines.
func (m *Manager) Close() {
	m.plane.Kill()
	m.listener.Close() // Serve may never have been started
}
