package edge

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"adafl/internal/core"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
	"adafl/internal/stats"
)

// DefaultHeartbeatInterval paces an edge's pings to the root; the root's
// watchdog default (DefaultHeartbeatTimeout) is a small multiple of it.
const DefaultHeartbeatInterval = 250 * time.Millisecond

// DefaultUpdateTimeout bounds an edge's per-round client collect.
const DefaultUpdateTimeout = 30 * time.Second

// ErrEdgeKilled is returned by Edge.Run after Kill: the crash-simulation
// hook the chaos suite uses.
var ErrEdgeKilled = fmt.Errorf("edge: killed")

// EdgeConfig configures one regional edge aggregator.
type EdgeConfig struct {
	// ID is the edge's unique identity in the tree (its merge position:
	// the root folds partials in ascending edge ID).
	ID int
	// ClientAddr is the client-facing listen address ("" binds an
	// ephemeral loopback port; the bound address is reported to the root
	// in the edge hello either way).
	ClientAddr string
	// RootAddr is the root's edge-facing address.
	RootAddr string
	// Region is the edge's scenario region ("" = none); the root's
	// reroute planner uses it for affinity and outage exclusion.
	Region string
	// Dim is the model dimension every folded update must declare.
	Dim int
	// Wire accepts only "" or rpc.WireBinary and selects nothing (see
	// rpc.WireBinary).
	Wire string
	// MaxUpdateNorm configures the shared integrity screen (0 disables
	// the norm gate; structural validation and scrubbing are always on).
	MaxUpdateNorm float64
	// HeartbeatInterval paces pings to the root (0 = 250ms).
	HeartbeatInterval time.Duration
	// UpdateTimeout bounds the per-round client collect (0 = 30s).
	UpdateTimeout time.Duration
	// DialTimeout bounds each root dial (0 = 10s).
	DialTimeout time.Duration
	// MaxRetries bounds consecutive failed root redials (0 = fail on
	// first loss); the budget resets when a connection makes progress.
	MaxRetries int
	// RetryBackoff is the initial redial backoff window (full jitter,
	// doubling, capped; 0 = 200ms).
	RetryBackoff time.Duration
	// Seed feeds the redial jitter.
	Seed uint64
	// Metrics/Events/Logf are the observability hooks (all optional).
	Metrics *obs.Registry
	Events  *obs.EventLog
	Logf    func(format string, args ...interface{})
	// OnSelect, when non-nil, runs when the root's round go-ahead
	// arrives, before the edge broadcasts it to its clients — the chaos
	// suite's mid-round kill hook.
	OnSelect func(round int)
	// Negotiation, when Enabled, turns on per-round codec negotiation on
	// the edge's client-facing select broadcasts: the roster is ranked by
	// observed uplink volume (EWMA wire bytes) and the heaviest senders
	// are assigned the deepest compression (core.AssignByLoad). Without
	// it every client gets the legacy Ratio-1 select.
	Negotiation core.NegotiationConfig
}

// EdgeResult summarises one edge session.
type EdgeResult struct {
	// Rounds is the number of partials shipped upstream.
	Rounds int
	// Folded is the total client updates folded across all rounds.
	Folded int64
	// Quarantined counts updates rejected by the integrity screen.
	Quarantined int
	// PeakClients is the largest concurrent client roster.
	PeakClients int
}

// Edge is one regional aggregator: it fronts a set of fleet clients over
// the wire protocol, folds each round's updates into a shard.Partial in
// ascending client ID (the determinism contract), and streams only the
// partial to the root. It heartbeats the root and survives root restarts
// by redialling with full-jitter backoff; its clients stay connected
// throughout.
type Edge struct {
	cfg EdgeConfig
	ln  net.Listener

	mu      sync.Mutex
	clients map[int]*edgeClient
	root    *rpc.Conn // current root connection (replaced on redial)
	killed  bool
	closing bool

	round int // current round, written by the run loop, read by heartbeats (under mu)
	res   EdgeResult

	neg *core.Negotiator // client-facing codec negotiator (nil when disabled)
	met edgeMetrics
}

type edgeClient struct {
	id   int
	conn *rpc.Conn
}

// NewEdge binds the client listener (so the address is known before the
// root hello) and returns the edge.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("edge: need a positive Dim")
	}
	if cfg.RootAddr == "" {
		return nil, fmt.Errorf("edge: need RootAddr")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.UpdateTimeout <= 0 {
		cfg.UpdateTimeout = DefaultUpdateTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	addr := cfg.ClientAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var neg *core.Negotiator
	if cfg.Negotiation.Enabled {
		var err error
		// The edge has no utility-ranked plan; load ranking drives the
		// default controller's ratio ladder.
		neg, err = core.NewNegotiator(cfg.Negotiation, core.DefaultController())
		if err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Edge{
		cfg:     cfg,
		ln:      ln,
		clients: map[int]*edgeClient{},
		neg:     neg,
		met:     newEdgeMetrics(cfg.Metrics, cfg.ID),
	}, nil
}

// ClientAddr returns the bound client-facing address.
func (e *Edge) ClientAddr() string { return e.ln.Addr().String() }

// Kill simulates an edge crash: listener, root link and every client
// connection are torn down with no farewells. Run returns ErrEdgeKilled.
func (e *Edge) Kill() {
	e.mu.Lock()
	e.killed = true
	e.closing = true
	root := e.root
	conns := make([]*rpc.Conn, 0, len(e.clients))
	for _, c := range e.clients {
		conns = append(conns, c.conn)
	}
	e.mu.Unlock()
	e.ln.Close()
	if root != nil {
		root.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

func (e *Edge) isKilled() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.killed
}

// Run registers with the root and serves rounds until the root shuts the
// session down (clients are shut down in turn), the redial budget is
// exhausted, or Kill. Root restarts are absorbed: the edge re-registers
// with backoff while its clients stay connected.
func (e *Edge) Run() (*EdgeResult, error) {
	go e.acceptLoop()
	defer e.ln.Close()

	backoff := rpc.NewRetryBackoff(e.cfg.RetryBackoff, 0, stats.NewRNG(e.cfg.Seed^uint64(e.cfg.ID)*0x9e3779b97f4a7c15).Split())
	part := shard.NewPartial(e.cfg.Dim)
	for retries := 0; ; {
		done, progressed, err := e.serveRoot(part)
		if done {
			e.shutdownClients("session done")
			e.mu.Lock()
			res := e.res
			e.mu.Unlock()
			return &res, nil
		}
		if e.isKilled() {
			return nil, ErrEdgeKilled
		}
		if progressed {
			retries = 0
			backoff.Reset()
		}
		// A root of another wire version will never agree: no retry helps.
		if retries >= e.cfg.MaxRetries || errors.Is(err, rpc.ErrWireVersion) {
			e.shutdownClients("edge lost its root")
			return nil, fmt.Errorf("edge %d: root link lost after %d of %d retries: %w", e.cfg.ID, retries, e.cfg.MaxRetries, err)
		}
		retries++
		wait := backoff.Next()
		e.cfg.Logf("edge %d: root link lost (%v); reconnect %d/%d in %v",
			e.cfg.ID, err, retries, e.cfg.MaxRetries, wait)
		time.Sleep(wait)
	}
}

// serveRoot runs one root connection: hello, heartbeats, rounds, until
// shutdown (done) or a link error.
func (e *Edge) serveRoot(part *shard.Partial) (done, progressed bool, err error) {
	conn, err := rpc.Dial("tcp", e.cfg.RootAddr, e.cfg.DialTimeout)
	if err != nil {
		return false, false, err
	}
	e.mu.Lock()
	if e.killed {
		e.mu.Unlock()
		conn.Close()
		return false, false, ErrEdgeKilled
	}
	e.root = conn
	n := len(e.clients)
	e.mu.Unlock()
	defer conn.Close()

	hello := &rpc.Envelope{
		Type: rpc.MsgEdgeHello, ClientID: e.cfg.ID, NumSamples: n,
		Info: e.ClientAddr(), Region: e.cfg.Region,
	}
	if err := conn.Send(hello); err != nil {
		return false, false, err
	}

	// Heartbeats carry the current round and client count; they stop
	// when this connection is replaced or closed.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go e.heartbeat(conn, hbStop)

	for {
		env, err := conn.Recv()
		if err != nil {
			return false, progressed, err
		}
		progressed = true
		switch env.Type {
		case rpc.MsgWelcome:
			e.cfg.Logf("edge %d: registered with root (next round %d)", e.cfg.ID, env.Round+1)
		case rpc.MsgPing:
			// Root-originated probe: echo it.
			if err := conn.Send(&rpc.Envelope{Type: rpc.MsgPing, ClientID: e.cfg.ID, Round: env.Round}); err != nil {
				return false, progressed, err
			}
		case rpc.MsgSelect:
			if err := e.runRound(conn, env.Round, part); err != nil {
				return false, progressed, err
			}
		case rpc.MsgShutdown:
			e.cfg.Logf("edge %d: shutdown (%s)", e.cfg.ID, env.Info)
			return true, true, nil
		default:
			return false, progressed, fmt.Errorf("edge %d: unexpected %v from root", e.cfg.ID, env.Type)
		}
	}
}

// heartbeat pings the root every interval with the edge's round and
// connected-client count, until stop closes or a send fails.
func (e *Edge) heartbeat(conn *rpc.Conn, stop <-chan struct{}) {
	t := time.NewTicker(e.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		e.mu.Lock()
		round, n := e.round, len(e.clients)
		e.mu.Unlock()
		if err := conn.Send(&rpc.Envelope{Type: rpc.MsgPing, ClientID: e.cfg.ID, Round: round, NumSamples: n}); err != nil {
			return
		}
		e.met.heartbeats.Inc()
	}
}

// runRound drives one round: broadcast the go-ahead to the current
// roster, collect updates under the deadline, screen + fold ascending
// client ID, ship the partial upstream.
func (e *Edge) runRound(root *rpc.Conn, round int, part *shard.Partial) error {
	if e.cfg.OnSelect != nil {
		e.cfg.OnSelect(round)
	}
	e.mu.Lock()
	e.round = round
	roster := make([]*edgeClient, 0, len(e.clients))
	for _, c := range e.clients {
		roster = append(roster, c)
	}
	if len(roster) > e.res.PeakClients {
		e.res.PeakClients = len(roster)
	}
	e.mu.Unlock()
	e.met.clients.Set(float64(len(roster)))

	// Negotiated path: rank the roster by observed uplink volume and
	// assign the heaviest senders the deepest compression. Without a
	// negotiator every client gets the legacy Ratio-1 select.
	var assigns map[int]core.CodecAssignment
	if e.neg != nil {
		ids := make([]int, 0, len(roster))
		for _, c := range roster {
			ids = append(ids, c.id)
		}
		assigns = e.neg.AssignByLoad(round, ids)
	}
	live := roster[:0]
	for _, c := range roster {
		sel := &rpc.Envelope{Type: rpc.MsgSelect, Round: round, Ratio: 1}
		if a, ok := assigns[c.id]; ok {
			sel.Ratio, sel.Codec, sel.Levels = a.Ratio, a.Codec, a.Levels
		}
		if err := c.conn.Send(sel); err != nil {
			e.dropClient(c, fmt.Errorf("select broadcast: %w", err))
			continue
		}
		live = append(live, c)
	}

	type recvResult struct {
		c   *edgeClient
		env *rpc.Envelope
		err error
	}
	results := make(chan recvResult, len(live))
	deadline := time.Now().Add(e.cfg.UpdateTimeout)
	for _, c := range live {
		go func(c *edgeClient) {
			c.conn.SetReadDeadline(deadline)
			env, err := c.conn.Recv()
			c.conn.SetReadDeadline(time.Time{})
			results <- recvResult{c: c, env: env, err: err}
		}(c)
	}
	items := make([]shard.Item, 0, len(live))
	for range live {
		r := <-results
		switch {
		case r.err != nil:
			e.dropClient(r.c, r.err)
		case r.env.Type != rpc.MsgUpdate || r.env.Round != round:
			e.dropClient(r.c, fmt.Errorf("expected round-%d update, got %v round %d", round, r.env.Type, r.env.Round))
		default:
			if e.neg != nil && r.env.Update != nil {
				// Per-client EWMA fold: order-independent across clients,
				// so receipt order cannot perturb future assignments.
				e.neg.RecordUpload(r.c.id, r.env.Update.WireBytes())
			}
			items = append(items, shard.Item{Client: r.c.id, Upd: r.env.Update})
		}
	}

	// The determinism contract: screen and fold in ascending client ID,
	// whatever order the updates arrived in.
	sort.Slice(items, func(i, j int) bool { return items[i].Client < items[j].Client })
	kept, quarantined := shard.Screen(round, e.cfg.Dim, e.cfg.MaxUpdateNorm, items, e.cfg.Logf)
	for _, q := range quarantined {
		e.met.quarantines.Inc()
		e.cfg.Events.Emit(obs.Event{Type: "quarantine", Round: round, Client: q.ClientID,
			Reason: q.Reason, Norm: q.Norm, Edge: e.cfg.ID})
		e.mu.Lock()
		c := e.clients[q.ClientID]
		e.mu.Unlock()
		if c != nil {
			e.dropClient(c, fmt.Errorf("quarantined update: %s", q.Reason))
		}
	}
	part.Reset()
	for _, u := range kept {
		part.Fold(shard.Update{Client: u.Client, Weight: 1, Delta: u.Upd}, false)
	}

	if err := root.Send(&rpc.Envelope{
		Type: rpc.MsgEdgePartial, ClientID: e.cfg.ID, Round: round,
		NumSamples: part.Count, WeightSum: part.WeightSum, Params: part.Sum,
	}); err != nil {
		return err
	}
	e.mu.Lock()
	e.res.Rounds++
	e.res.Folded += int64(part.Count)
	e.res.Quarantined += len(quarantined)
	e.mu.Unlock()
	e.met.folded.Add(int64(part.Count))
	e.met.partials.Inc()
	return nil
}

// acceptLoop admits clients: handshake, hello, register. A re-hello of a
// live ID replaces the old connection.
func (e *Edge) acceptLoop() {
	for {
		raw, err := e.ln.Accept()
		if err != nil {
			return // listener closed: shutdown or kill
		}
		go e.admit(raw)
	}
}

func (e *Edge) admit(raw net.Conn) {
	conn, env, err := rpc.Accept(raw, rpc.MsgHello)
	if err != nil {
		return
	}
	e.mu.Lock()
	if e.closing {
		e.mu.Unlock()
		conn.Send(&rpc.Envelope{Type: rpc.MsgShutdown, Info: "edge closing"})
		conn.Close()
		return
	}
	if old := e.clients[env.ClientID]; old != nil {
		old.conn.Close()
	}
	e.clients[env.ClientID] = &edgeClient{id: env.ClientID, conn: conn}
	n := len(e.clients)
	e.mu.Unlock()
	e.met.clients.Set(float64(n))
}

// dropClient evicts one client from the roster.
func (e *Edge) dropClient(c *edgeClient, err error) {
	c.conn.Close()
	e.mu.Lock()
	if cur := e.clients[c.id]; cur == c {
		delete(e.clients, c.id)
	}
	n := len(e.clients)
	e.mu.Unlock()
	e.met.clients.Set(float64(n))
	e.cfg.Logf("edge %d: dropped client %d: %v", e.cfg.ID, c.id, err)
}

// shutdownClients tells every connected client the session is over.
func (e *Edge) shutdownClients(info string) {
	e.mu.Lock()
	e.closing = true
	conns := make([]*rpc.Conn, 0, len(e.clients))
	for _, c := range e.clients {
		conns = append(conns, c.conn)
	}
	e.clients = map[int]*edgeClient{}
	e.mu.Unlock()
	for _, c := range conns {
		c.Send(&rpc.Envelope{Type: rpc.MsgShutdown, Info: info})
		c.Close()
	}
}
