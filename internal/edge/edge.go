package edge

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
// throughout, on an rpc.Roster in which a re-hello of a live ID replaces
// the old connection.
type Edge struct {
	cfg    EdgeConfig
	ln     net.Listener
	roster *rpc.Roster

	mu   sync.Mutex
	root *rpc.Conn // current root connection (replaced on redial), under mu

	round atomic.Int64 // current round: the run loop writes, heartbeats read
	res   EdgeResult   // the run loop's alone

	neg *core.Negotiator // client-facing codec negotiator (nil when disabled)
	met edgeMetrics
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
		cfg:    cfg,
		ln:     ln,
		roster: rpc.NewRoster(true),
		neg:    neg,
		met:    newEdgeMetrics(cfg.Metrics, cfg.ID),
	}, nil
}

// ClientAddr returns the bound client-facing address.
func (e *Edge) ClientAddr() string { return e.ln.Addr().String() }

// Kill simulates an edge crash: listener, root link and every client
// connection are torn down with no farewells. Run returns ErrEdgeKilled.
func (e *Edge) Kill() {
	e.roster.Kill()
	e.ln.Close()
	e.mu.Lock()
	root := e.root
	e.mu.Unlock()
	if root != nil {
		root.Close()
	}
}

// Run registers with the root and serves rounds until the root shuts the
// session down (clients are shut down in turn), the redial budget is
// exhausted, or Kill. Root restarts are absorbed: the edge re-registers
// with backoff (rpc.Redial) while its clients stay connected.
func (e *Edge) Run() (*EdgeResult, error) {
	go e.roster.Serve(e.ln, rpc.MsgHello, nil, e.admit)
	defer e.ln.Close()

	part := shard.NewPartial(e.cfg.Dim)
	err := rpc.Redial(e.cfg.MaxRetries, e.cfg.RetryBackoff,
		stats.NewRNG(e.cfg.Seed^uint64(e.cfg.ID)*0x9e3779b97f4a7c15).Split(),
		func() (done, progressed bool, err error) {
			done, progressed, err = e.serveRoot(part)
			if e.roster.Killed() {
				return true, progressed, ErrEdgeKilled
			}
			return done, progressed, err
		},
		func(retry int, wait time.Duration, err error) {
			e.cfg.Logf("edge %d: root link lost (%v); reconnect %d/%d in %v",
				e.cfg.ID, err, retry, e.cfg.MaxRetries, wait)
		})
	if err == ErrEdgeKilled {
		return nil, err
	}
	if err != nil {
		e.roster.Shutdown("edge lost its root", e.cfg.UpdateTimeout)
		return nil, fmt.Errorf("edge %d: root link lost, retry budget %d spent: %w", e.cfg.ID, e.cfg.MaxRetries, err)
	}
	e.roster.Shutdown("session done", e.cfg.UpdateTimeout)
	return &e.res, nil
}

// serveRoot runs one root connection: hello, heartbeats, rounds, until
// shutdown (done) or a link error.
func (e *Edge) serveRoot(part *shard.Partial) (done, progressed bool, err error) {
	conn, err := rpc.Dial("tcp", e.cfg.RootAddr, e.cfg.DialTimeout)
	if err != nil {
		return false, false, err
	}
	e.mu.Lock()
	e.root = conn
	e.mu.Unlock()
	defer conn.Close()
	if e.roster.Killed() {
		return false, false, ErrEdgeKilled // Kill may have missed this conn
	}

	hello := &rpc.Envelope{
		Type: rpc.MsgEdgeHello, ClientID: e.cfg.ID, NumSamples: e.roster.Len(),
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
			if err := conn.SendWithin(e.cfg.HeartbeatInterval, &rpc.Envelope{Type: rpc.MsgPing, ClientID: e.cfg.ID, Round: env.Round}); err != nil {
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
		// Under a deadline of one interval: a root that stops reading must
		// not park this goroutine on a full socket.
		ping := &rpc.Envelope{Type: rpc.MsgPing, ClientID: e.cfg.ID, Round: int(e.round.Load()), NumSamples: e.roster.Len()}
		if err := conn.SendWithin(e.cfg.HeartbeatInterval, ping); err != nil {
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
	roster := e.roster.Snapshot()
	e.round.Store(int64(round))
	e.res.PeakClients = max(e.res.PeakClients, len(roster))
	e.met.clients.Set(float64(len(roster)))

	// Negotiated path: rank the roster by observed uplink volume and
	// assign the heaviest senders the deepest compression. Without a
	// negotiator every client gets the legacy Ratio-1 select.
	var assigns map[int]core.CodecAssignment
	if e.neg != nil {
		ids := make([]int, 0, len(roster))
		for _, p := range roster {
			ids = append(ids, p.ID)
		}
		assigns = e.neg.AssignByLoad(round, ids)
	}
	errs := rpc.Exchange(roster, round, rpc.MsgUpdate, e.cfg.UpdateTimeout, e.cfg.UpdateTimeout,
		func(p *rpc.Peer) (*rpc.Envelope, bool) {
			sel := &rpc.Envelope{Type: rpc.MsgSelect, Round: round, Ratio: 1}
			if a, ok := assigns[p.ID]; ok {
				sel.Ratio, sel.Codec, sel.Levels = a.Ratio, a.Codec, a.Levels
			}
			return sel, true
		})
	items := make([]shard.Item, 0, len(roster))
	for i, p := range roster {
		if errs[i] != nil {
			e.dropClient(p, errs[i])
			continue
		}
		if e.neg != nil {
			// Per-client EWMA fold: order-independent across clients,
			// so receipt order cannot perturb future assignments.
			e.neg.RecordUpload(p.ID, p.Env.Update.WireBytes())
		}
		items = append(items, shard.Item{Client: p.ID, Upd: p.Env.Update})
	}

	// The determinism contract: screen and fold in ascending client ID,
	// the order Exchange reports in whatever order the updates arrived.
	kept, quarantined := shard.Screen(round, e.cfg.Dim, e.cfg.MaxUpdateNorm, items, e.cfg.Logf)
	for _, q := range quarantined {
		e.met.quarantines.Inc()
		e.cfg.Events.Emit(obs.Event{Type: "quarantine", Round: round, Client: q.ClientID,
			Reason: q.Reason, Norm: q.Norm, Edge: e.cfg.ID})
		e.dropClient(rpc.FindPeer(roster, q.ClientID), fmt.Errorf("quarantined update: %s", q.Reason))
	}
	part.Reset()
	for _, u := range kept {
		part.Fold(shard.Update{Client: u.Client, Weight: 1, Delta: u.Upd}, false)
	}

	if err := root.SendWithin(e.cfg.UpdateTimeout, &rpc.Envelope{
		Type: rpc.MsgEdgePartial, ClientID: e.cfg.ID, Round: round,
		NumSamples: part.Count, WeightSum: part.WeightSum, Params: part.Sum,
	}); err != nil {
		return err
	}
	e.res.Rounds++
	e.res.Folded += int64(part.Count)
	e.res.Quarantined += len(quarantined)
	e.met.folded.Add(int64(part.Count))
	e.met.partials.Inc()
	return nil
}

// admit registers one client. The fleet protocol has no welcome: a
// client's first frame from its edge is a round's select.
func (e *Edge) admit(conn *rpc.Conn, hello *rpc.Envelope) {
	if e.roster.Admit(&rpc.Peer{ID: hello.ClientID, Conn: conn}, nil) == nil {
		e.met.clients.Set(float64(e.roster.Len()))
	}
}

// dropClient evicts one client from the roster.
func (e *Edge) dropClient(p *rpc.Peer, err error) {
	e.roster.Remove(p)
	e.met.clients.Set(float64(e.roster.Len()))
	e.cfg.Logf("edge %d: dropped client %d: %v", e.cfg.ID, p.ID, err)
}
