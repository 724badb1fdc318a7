package edge

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/netsim"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
	"adafl/internal/tensor"
)

// DefaultHeartbeatTimeout is how long the root tolerates silence from a
// registered edge before declaring it dead (8× the default ping
// interval).
const DefaultHeartbeatTimeout = 2 * time.Second

// ErrRootKilled is returned by Root.Run after Kill — the crash hook the
// kill-and-resume suite uses.
var ErrRootKilled = fmt.Errorf("edge: root killed")

// RootConfig configures the top of the two-tier tree.
type RootConfig struct {
	// EdgeAddr is the edge-facing listen address; ClientAddr the client
	// bootstrap listen address ("" binds ephemeral loopback ports).
	EdgeAddr   string
	ClientAddr string
	// NumEdges is the expected edge roster size; the session starts once
	// that many edges have registered.
	NumEdges int
	// Clients is the fleet size: assignment vector length and the client
	// quorum the session waits for before round 0.
	Clients int
	// Rounds is the session length; Dim the model dimension.
	Rounds int
	Dim    int
	// Wire accepts only "" or rpc.WireBinary and selects nothing (see
	// rpc.WireBinary).
	Wire string
	// HeartbeatTimeout is the silence window after which a registered
	// edge is declared dead (0 = 2s). PartialTimeout bounds the per-round
	// collect (0 = 60s). QuorumTimeout bounds the initial registration
	// and client-quorum waits (0 = 60s). RerouteGrace bounds the
	// post-reroute wait for orphans to resurface on their new edges
	// before the next round's go-ahead (0 = 3s).
	HeartbeatTimeout time.Duration
	PartialTimeout   time.Duration
	QuorumTimeout    time.Duration
	RerouteGrace     time.Duration
	// CheckpointDir enables root snapshots ("" disables): topology epoch,
	// per-edge assignment, down set, global params — the whole tree, one
	// epoch of a checkpoint.DeltaWriter chain per round, written behind the
	// next round. A failed write is logged and the session continues.
	CheckpointDir string
	// Resume restores the chain's latest snapshot when one exists; without
	// it a directory that already holds a chain is refused
	// (checkpoint.Open). A snapshot whose Dim/NumEdges/Clients/Rounds
	// disagree with this config is refused with a hard error.
	Resume bool
	// Cost parameterises reroute planning (see CostModel).
	Cost CostModel
	// Metrics/Events/Logf are the observability hooks (all optional).
	Metrics *obs.Registry
	Events  *obs.EventLog
	Logf    func(format string, args ...interface{})
	// OnRound, when non-nil, observes each completed round (test hook).
	OnRound func(round int, global []float64)
}

// RootRound summarises one completed round at the root.
type RootRound struct {
	Round     int
	Edges     int // partials merged
	Folded    int // client updates inside those partials
	Rerouted  int // clients reassigned during the round
	WeightSum float64
}

// RootResult is the session outcome.
type RootResult struct {
	Global   []float64
	History  []RootRound
	Reroutes int // reroute plans executed
	Orphans  int // clients moved across all reroutes
	Epoch    int // final topology epoch
	Resumed  int // rounds restored from the snapshot (0 on a fresh run)
}

// rootSnapshot is the meta section of the tree's snapshot; the model rides
// beside it as the "global" vector. Down is a sorted slice (not a map) so
// the gob bytes are deterministic.
type rootSnapshot struct {
	CompletedRound int
	NumEdges       int
	Clients        int
	Rounds         int
	Epoch          int
	Specs          []specSnapshot
	Assign         []int
	Down           []int
	History        []RootRound
	Reroutes       int
	Orphans        int
}

// Round makes rootSnapshot a checkpoint.Meta.
func (m *rootSnapshot) Round() int { return m.CompletedRound }

// specSnapshot is EdgeSpec flattened for gob: netsim.Link carries an
// unencodable *Trace, and a bandwidth trace is transient simulator state
// a resumed root re-derives from its own config anyway.
type specSnapshot struct {
	ID     int
	Addr   string
	Region string
	Access linkSnapshot
	Uplink linkSnapshot
}

type linkSnapshot struct {
	UpBps, DownBps, LatencyS, JitterS, LossProb float64
}

func snapLink(l netsim.Link) linkSnapshot {
	return linkSnapshot{UpBps: l.UpBps, DownBps: l.DownBps,
		LatencyS: l.LatencyS, JitterS: l.JitterS, LossProb: l.LossProb}
}

func (s linkSnapshot) link() netsim.Link {
	return netsim.Link{UpBps: s.UpBps, DownBps: s.DownBps,
		LatencyS: s.LatencyS, JitterS: s.JitterS, LossProb: s.LossProb}
}

func snapSpecs(specs []EdgeSpec) []specSnapshot {
	out := make([]specSnapshot, len(specs))
	for i, s := range specs {
		out[i] = specSnapshot{ID: s.ID, Addr: s.Addr, Region: s.Region,
			Access: snapLink(s.Access), Uplink: snapLink(s.Uplink)}
	}
	return out
}

func restoreSpecs(snaps []specSnapshot) []EdgeSpec {
	out := make([]EdgeSpec, len(snaps))
	for i, s := range snaps {
		out[i] = EdgeSpec{ID: s.ID, Addr: s.Addr, Region: s.Region,
			Access: s.Access.link(), Uplink: s.Uplink.link()}
	}
	return out
}

const (
	evPartial = iota
	evDown
)

type rootEv struct {
	kind  int
	edge  int
	peer  *rpc.Peer // evDown: the connection that died
	round int
	part  *shard.Partial
	err   error
}

// rootEdge is the root's own state of one registered edge (rpc.Peer.Ext).
// lastSeen and clients are written by the edge's reader under Root.mu.
type rootEdge struct {
	lastSeen time.Time
	clients  int
	addr     string
	region   string
}

// Root is the top-tier aggregator: it admits NumEdges regional edges,
// plans the client→edge assignment over the cost graph, answers client
// bootstrap requests with MsgReroute, drives rounds by broadcasting the
// go-ahead and merging edge partials in ascending edge ID (the
// bit-determinism contract), and — the headline — detects a dead edge via
// missed heartbeats or a wire error mid-round, completes the round with
// partial aggregation, and reassigns the orphans to the cheapest
// surviving siblings via Dijkstra over the live cost graph.
type Root struct {
	cfg      RootConfig
	edgeLn   net.Listener
	clientLn net.Listener

	// roster holds the edge connections (a re-registering edge replaces its
	// old connection, and a death report about a replaced connection is
	// stale: Remove says so), serves both listeners and owns the readers,
	// the watchdog and both exits. Its Done ends the session for them.
	roster *rpc.Roster

	mu          sync.Mutex
	topo        *Topology
	assignReady bool
	pendingJoin map[int]bool // down edges that re-registered, admitted at the round boundary
	round       int
	reroutes    int
	orphans     int

	ev chan rootEv

	ckpt   *checkpoint.DeltaWriter // touched only by Run's goroutine
	report *checkpoint.Reporter
	met    rootMetrics
}

// NewRoot validates the config and binds both listeners so the addresses
// are known before any edge or client starts.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.Dim <= 0 || cfg.NumEdges <= 0 || cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("edge: root needs positive Dim, NumEdges, Clients, Rounds")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.PartialTimeout <= 0 {
		cfg.PartialTimeout = 60 * time.Second
	}
	if cfg.QuorumTimeout <= 0 {
		cfg.QuorumTimeout = 60 * time.Second
	}
	if cfg.RerouteGrace <= 0 {
		cfg.RerouteGrace = 3 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	edgeAddr, clientAddr := cfg.EdgeAddr, cfg.ClientAddr
	if edgeAddr == "" {
		edgeAddr = "127.0.0.1:0"
	}
	if clientAddr == "" {
		clientAddr = "127.0.0.1:0"
	}
	edgeLn, err := net.Listen("tcp", edgeAddr)
	if err != nil {
		return nil, err
	}
	clientLn, err := net.Listen("tcp", clientAddr)
	if err != nil {
		edgeLn.Close()
		return nil, err
	}
	r := &Root{
		cfg:      cfg,
		edgeLn:   edgeLn,
		clientLn: clientLn,
		roster:   rpc.NewRoster(true),

		pendingJoin: map[int]bool{},
		ev:          make(chan rootEv, 64),
		met:         newRootMetrics(cfg.Metrics),
	}
	r.roster.Cap = cfg.NumEdges
	r.report = checkpoint.NewReporter(cfg.Metrics, "", cfg.Events, func(round int, err error) {
		cfg.Logf("root: checkpoint after round %d failed (continuing): %v", round+1, err)
	})
	return r, nil
}

// EdgeAddr returns the bound edge-facing address.
func (r *Root) EdgeAddr() string { return r.edgeLn.Addr().String() }

// BootstrapAddr returns the bound client bootstrap address.
func (r *Root) BootstrapAddr() string { return r.clientLn.Addr().String() }

// Kill simulates a root crash: both listeners and every edge connection
// drop with no farewells. Run returns ErrRootKilled.
func (r *Root) Kill() {
	r.roster.Kill()
	r.edgeLn.Close() // Run may not have served them yet
	r.clientLn.Close()
}

// Run drives the session: restore-or-plan, registration and client
// quorum, then Rounds rounds of select → collect → merge → checkpoint.
func (r *Root) Run() (*RootResult, error) {
	// Whatever the exit, the edges must observe it: a clean finish has said
	// goodbye (Shutdown) and this closes nothing more; an error exit drops
	// every edge link rather than leave them blocked on a live socket.
	defer r.Kill()

	global := make([]float64, r.cfg.Dim)
	var history []RootRound
	start := 0
	resumed := 0
	if r.cfg.CheckpointDir != "" {
		w, snap, err := checkpoint.Open(r.cfg.CheckpointDir, r.cfg.Resume, checkpoint.DeltaOptions{}, r.cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("root: %w", err)
		}
		r.ckpt = w
		if snap != nil {
			meta, err := r.restore(snap, global)
			if err != nil {
				return nil, err
			}
			history = meta.History
			start = meta.CompletedRound + 1
			resumed = start
			r.cfg.Logf("root: resumed at round %d (epoch %d, %d edges down, %d reroutes so far)",
				start+1, meta.Epoch, len(meta.Down), meta.Reroutes)
		}
	}

	go r.roster.Serve(r.edgeLn, rpc.MsgEdgeHello, nil, r.admitEdge)
	go r.roster.Serve(r.clientLn, rpc.MsgHello, nil, r.admitClient)
	r.roster.Go(r.watchdog)

	if start >= r.cfg.Rounds {
		// Nothing left to do: the snapshot covers the whole session.
		return r.result(global, history, resumed), nil
	}
	if err := r.awaitEdges(start); err != nil {
		return nil, err
	}
	if err := r.planIfNeeded(); err != nil {
		return nil, err
	}
	if err := r.awaitClients(); err != nil {
		return nil, err
	}

	// Every way out of the round loop joins the epoch still in flight: the
	// last completed round is durable, and the writer's goroutine gone,
	// before Run returns.
	defer r.joinCheckpoint()
	merged := shard.NewPartial(r.cfg.Dim)
	for round := start; round < r.cfg.Rounds; round++ {
		rec, err := r.runRound(round, merged, global)
		if err != nil {
			return nil, err
		}
		history = append(history, rec)
		r.met.rounds.Inc()
		if r.ckpt != nil {
			r.saveCheckpoint(round, global, history)
		}
		if r.cfg.OnRound != nil {
			r.cfg.OnRound(round, global)
		}
		if r.roster.Killed() {
			return nil, ErrRootKilled
		}
		r.cfg.Events.Flush()
		if rec.Rerouted > 0 && round < r.cfg.Rounds-1 {
			r.awaitRerouted()
		}
	}

	r.roster.Shutdown(fmt.Sprintf("session done: %d rounds", r.cfg.Rounds), r.cfg.PartialTimeout)
	return r.result(global, history, resumed), nil
}

func (r *Root) result(global []float64, history []RootRound, resumed int) *RootResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := 0
	if r.topo != nil {
		epoch = r.topo.Epoch
	}
	return &RootResult{
		Global: global, History: history,
		Reroutes: r.reroutes, Orphans: r.orphans, Epoch: epoch, Resumed: resumed,
	}
}

// restore loads the tree snapshot into global and the root's topology,
// refusing any topology that disagrees with the config — resuming a 3-edge
// session as a 4-edge one would silently misassign every client.
func (r *Root) restore(snap *checkpoint.Snapshot, global []float64) (*rootSnapshot, error) {
	var meta rootSnapshot
	if err := snap.Restore(&meta, checkpoint.Vector{Name: "global", Vals: global}); err != nil {
		return nil, fmt.Errorf("root: refusing to resume from %s epoch %d: %w", r.cfg.CheckpointDir, snap.Epoch, err)
	}
	if meta.NumEdges != r.cfg.NumEdges || meta.Clients != r.cfg.Clients || meta.Rounds != r.cfg.Rounds {
		return nil, fmt.Errorf(
			"root: refusing to resume: checkpoint topology (edges=%d clients=%d rounds=%d) does not match config (edges=%d clients=%d rounds=%d)",
			meta.NumEdges, meta.Clients, meta.Rounds,
			r.cfg.NumEdges, r.cfg.Clients, r.cfg.Rounds)
	}
	if len(meta.Assign) != meta.Clients {
		return nil, fmt.Errorf("root: corrupt checkpoint: %d assignments for %d clients", len(meta.Assign), meta.Clients)
	}
	topo := &Topology{
		Epoch:  meta.Epoch,
		Specs:  restoreSpecs(meta.Specs),
		Assign: meta.Assign,
		Down:   map[int]bool{},
	}
	for _, id := range meta.Down {
		topo.Down[id] = true
	}
	r.mu.Lock()
	r.topo = topo
	r.assignReady = true
	r.reroutes = meta.Reroutes
	r.orphans = meta.Orphans
	r.round = meta.CompletedRound + 1
	r.mu.Unlock()
	return &meta, nil
}

// saveCheckpoint joins the previous round's epoch, captures this round's
// and leaves it writing behind the next round.
func (r *Root) saveCheckpoint(round int, global []float64, history []RootRound) {
	r.mu.Lock()
	down := make([]int, 0, len(r.topo.Down))
	for id := range r.topo.Down {
		down = append(down, id)
	}
	sort.Ints(down)
	meta := &rootSnapshot{
		CompletedRound: round,
		NumEdges:       r.cfg.NumEdges,
		Clients:        r.cfg.Clients,
		Rounds:         r.cfg.Rounds,
		Epoch:          r.topo.Epoch,
		Specs:          snapSpecs(r.topo.Specs),
		Assign:         append([]int(nil), r.topo.Assign...),
		Down:           down,
		History:        history,
		Reroutes:       r.reroutes,
		Orphans:        r.orphans,
	}
	r.mu.Unlock()
	r.report.Joined(r.ckpt.Snapshot(meta, checkpoint.Vector{Name: "global", Vals: global}))
}

// joinCheckpoint waits for the epoch in flight, if any.
func (r *Root) joinCheckpoint() {
	if r.ckpt != nil {
		r.report.Joined(r.ckpt.Wait())
		r.cfg.Events.Flush()
	}
}

// awaitEdges blocks until the expected roster is registered: NumEdges
// distinct edges on a fresh start, every live checkpointed edge on
// resume. On resume, live edges that never resurface within the quorum
// window are declared dead and their clients rerouted — a resumed root
// must not hang forever on an edge that died while it was down.
func (r *Root) awaitEdges(round int) error {
	deadline := time.Now().Add(r.cfg.QuorumTimeout)
	for {
		r.mu.Lock()
		var ready bool
		var missing []int
		if r.topo == nil {
			ready = r.roster.Len() >= r.cfg.NumEdges
		} else {
			ready = true
			for _, s := range r.topo.Live() {
				if r.roster.Peer(s.ID) == nil {
					ready = false
					missing = append(missing, s.ID)
				}
			}
		}
		r.mu.Unlock()
		if r.roster.Killed() {
			return ErrRootKilled
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			if r.topo == nil {
				return fmt.Errorf("root: only %d of %d edges registered within %v",
					r.roster.Len(), r.cfg.NumEdges, r.cfg.QuorumTimeout)
			}
			sort.Ints(missing)
			for _, id := range missing {
				if _, err := r.rerouteDead(round, id, "edge never re-registered after resume"); err != nil {
					return err
				}
			}
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// planIfNeeded builds the topology from the registered roster and plans
// the initial assignment (fresh starts only; resume restores both).
func (r *Root) planIfNeeded() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.topo != nil {
		return nil
	}
	edges := r.roster.Snapshot()
	specs := make([]EdgeSpec, 0, len(edges))
	for _, p := range edges {
		re := p.Ext.(*rootEdge)
		specs = append(specs, EdgeSpec{
			ID: p.ID, Addr: re.addr, Region: re.region, Access: netsim.WiFiLink, Uplink: netsim.EthernetLink,
		})
	}
	topo, err := NewTopology(specs, r.cfg.Clients)
	if err != nil {
		return err
	}
	if err := topo.Plan(r.cfg.Cost); err != nil {
		return err
	}
	r.topo = topo
	r.assignReady = true
	r.cfg.Logf("root: planned %d clients over %d edges (epoch %d)",
		r.cfg.Clients, len(topo.Specs), topo.Epoch)
	return nil
}

// connectedClients sums the client counts the edges last reported.
func (r *Root) connectedClients() int {
	edges := r.roster.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range edges {
		n += p.Ext.(*rootEdge).clients
	}
	return n
}

// awaitClients blocks until the edges report a combined client roster
// covering the fleet, so round 0 selects everyone (counts arrive via
// heartbeats, so this lags by at most one ping interval). Edge deaths
// during the wait are drained and rerouted — an edge that registers and
// immediately goes silent must not pin its clients to a dead address.
func (r *Root) awaitClients() error {
	deadline := time.Now().Add(r.cfg.QuorumTimeout)
	for {
		r.mu.Lock()
		round := r.round
		r.mu.Unlock()
		if err := r.drainEvents(round); err != nil {
			return err
		}
		if r.roster.Killed() {
			return ErrRootKilled
		}
		n := r.connectedClients()
		if n >= r.cfg.Clients {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("root: only %d of %d clients surfaced within %v",
				n, r.cfg.Clients, r.cfg.QuorumTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitRerouted gives orphans a bounded window to resurface on their new
// edges before the next go-ahead, so a reroute costs at most one round of
// their participation. Best-effort: the session proceeds at the deadline
// regardless.
func (r *Root) awaitRerouted() {
	deadline := time.Now().Add(r.cfg.RerouteGrace)
	for time.Now().Before(deadline) {
		if r.roster.Killed() || r.connectedClients() >= r.cfg.Clients {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runRound drives one round: admit boundary rejoins, drain stale death
// reports, broadcast the go-ahead, collect partials (rerouting on any
// death), merge ascending edge ID, apply.
func (r *Root) runRound(round int, merged *shard.Partial, global []float64) (RootRound, error) {
	r.mu.Lock()
	r.round = round
	orphansBefore := r.orphans
	rejoins := make([]int, 0, len(r.pendingJoin))
	for id := range r.pendingJoin {
		if r.roster.Peer(id) != nil {
			rejoins = append(rejoins, id)
		}
		delete(r.pendingJoin, id)
	}
	sort.Ints(rejoins)
	for _, id := range rejoins {
		r.topo.Rejoin(id)
	}
	r.mu.Unlock()
	for _, id := range rejoins {
		r.cfg.Logf("root: edge %d re-admitted at round %d boundary", id, round+1)
		r.cfg.Events.Emit(obs.Event{Type: "edge_up", Round: round, Client: -1, Edge: id})
		r.met.edgesLive.Inc()
	}

	// Deaths detected between rounds are handled before the go-ahead.
	if err := r.drainEvents(round); err != nil {
		return RootRound{}, err
	}

	r.mu.Lock()
	var targets []*rpc.Peer
	var missing []int
	for _, s := range r.topo.Live() {
		if p := r.roster.Peer(s.ID); p != nil {
			targets = append(targets, p)
		} else {
			missing = append(missing, s.ID)
		}
	}
	r.mu.Unlock()
	for _, id := range missing {
		if _, err := r.rerouteDead(round, id, "not connected at round start"); err != nil {
			return RootRound{}, err
		}
	}

	// The go-ahead is an exchange with no reply: the partials come back
	// through the edges' readers, between their heartbeats.
	sel := &rpc.Envelope{Type: rpc.MsgSelect, Round: round, Ratio: 1}
	errs := rpc.Exchange(targets, round, rpc.MsgEdgePartial, r.cfg.PartialTimeout, 0,
		func(*rpc.Peer) (*rpc.Envelope, bool) { return sel, false })
	pending := map[int]bool{}
	for i, p := range targets {
		if errs[i] != nil {
			if err := r.handleDown(round, p, fmt.Errorf("select broadcast: %w", errs[i])); err != nil {
				return RootRound{}, err
			}
			continue
		}
		pending[p.ID] = true
	}
	if len(pending) == 0 {
		return RootRound{}, fmt.Errorf("root: round %d: no live edges to select", round+1)
	}

	parts := map[int]*shard.Partial{}
	timeout := time.NewTimer(r.cfg.PartialTimeout)
	defer timeout.Stop()
collect:
	for len(pending) > 0 {
		select {
		case e := <-r.ev:
			if err := r.handleEvent(round, e, pending, parts); err != nil {
				return RootRound{}, err
			}
		case <-timeout.C:
			laggards := make([]int, 0, len(pending))
			for id := range pending {
				laggards = append(laggards, id)
			}
			sort.Ints(laggards)
			for _, id := range laggards {
				delete(pending, id)
				p := r.roster.Peer(id)
				if p == nil {
					continue
				}
				// The reader's death report about this connection will be stale.
				if err := r.handleDown(round, p, fmt.Errorf("no partial within %v", r.cfg.PartialTimeout)); err != nil {
					return RootRound{}, err
				}
			}
			break collect
		case <-r.roster.Done():
			return RootRound{}, ErrRootKilled
		}
	}

	// The determinism contract: merge in ascending edge ID, whatever
	// order the partials arrived in.
	ids := make([]int, 0, len(parts))
	for id := range parts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	merged.Reset()
	for _, id := range ids {
		merged.Merge(parts[id])
	}
	if merged.WeightSum > 0 {
		tensor.Axpy(1/merged.WeightSum, merged.Sum, global)
	}

	r.mu.Lock()
	rerouted := r.orphans - orphansBefore
	r.mu.Unlock()
	rec := RootRound{
		Round: round, Edges: len(parts), Folded: merged.Count,
		Rerouted: rerouted, WeightSum: merged.WeightSum,
	}
	r.cfg.Logf("root: round %d: merged %d partials (%d updates, weight %.0f), %d clients rerouted",
		round+1, rec.Edges, rec.Folded, rec.WeightSum, rec.Rerouted)
	r.cfg.Events.Emit(obs.Event{Type: "round", Round: round, Client: -1,
		Clients: r.cfg.Clients, Received: rec.Folded, Selected: rec.Edges})
	return rec, nil
}

// drainEvents handles every queued death report without blocking (stale
// partials from earlier rounds are discarded).
func (r *Root) drainEvents(round int) error {
	for {
		select {
		case e := <-r.ev:
			if err := r.handleEvent(round, e, nil, nil); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// handleEvent processes one reader event during (or between) rounds.
// pending/parts are nil between rounds.
func (r *Root) handleEvent(round int, e rootEv, pending map[int]bool, parts map[int]*shard.Partial) error {
	switch e.kind {
	case evPartial:
		if pending == nil || !pending[e.edge] {
			r.cfg.Logf("root: discarding unexpected partial from edge %d (round %d)", e.edge, e.round+1)
			return nil
		}
		if err := validatePartial(e, round, r.cfg.Dim); err != nil {
			r.cfg.Logf("root: rejecting partial from edge %d: %v", e.edge, err)
			return nil
		}
		parts[e.edge] = e.part
		delete(pending, e.edge)
		partialCounter(r.cfg.Metrics, e.edge).Inc()
	case evDown:
		if pending != nil {
			delete(pending, e.edge)
		}
		if err := r.handleDown(round, e.peer, e.err); err != nil {
			return err
		}
	}
	return nil
}

func validatePartial(e rootEv, round, dim int) error {
	switch {
	case e.round != round:
		return fmt.Errorf("stale round %d (want %d)", e.round+1, round+1)
	case e.part.Dim != dim:
		return fmt.Errorf("dimension %d (want %d)", e.part.Dim, dim)
	case math.IsNaN(e.part.WeightSum) || math.IsInf(e.part.WeightSum, 0) || e.part.WeightSum < 0:
		return fmt.Errorf("non-finite or negative weight sum %v", e.part.WeightSum)
	case e.part.Count < 0:
		return fmt.Errorf("negative fold count %d", e.part.Count)
	}
	return nil
}

// handleDown retires one edge connection and reroutes its clients. A
// report about a connection that has already been replaced or retired is
// stale and ignored: Remove is idempotent and says which it was.
func (r *Root) handleDown(round int, p *rpc.Peer, cause error) error {
	if !r.roster.Remove(p) {
		return nil
	}
	id := p.ID
	r.cfg.Logf("root: edge %d down at round %d: %v", id, round+1, cause)
	reason := "down"
	if cause != nil {
		reason = cause.Error()
	}
	r.cfg.Events.Emit(obs.Event{Type: "edge_down", Round: round, Client: -1, Edge: id, Reason: reason})
	r.met.edgesDown.Inc()
	_, err := r.rerouteDead(round, id, reason)
	return err
}

// rerouteDead marks the edge down in the topology and reassigns its
// orphans to the cheapest surviving siblings. Fatal when no live edge
// remains — the session cannot make progress.
func (r *Root) rerouteDead(round, id int, reason string) (int, error) {
	r.mu.Lock()
	if r.topo == nil || r.topo.Down[id] {
		r.mu.Unlock()
		return 0, nil
	}
	orphans, err := r.topo.Reroute(id, r.cfg.Cost)
	epoch := 0
	if err == nil {
		r.reroutes++
		r.orphans += len(orphans)
		epoch = r.topo.Epoch
	}
	r.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("root: round %d: reroute of edge %d: %w", round+1, id, err)
	}
	r.cfg.Logf("root: rerouted %d orphans of edge %d (%s); epoch now %d",
		len(orphans), id, reason, epoch)
	r.cfg.Events.Emit(obs.Event{Type: "reroute", Round: round, Client: -1, Edge: id,
		Clients: len(orphans), Reason: reason})
	r.met.reroutes.Inc()
	r.met.orphans.Add(int64(len(orphans)))
	return len(orphans), nil
}

// admitEdge handles one edge registration: install (or replace) the roster
// entry, welcome, spawn the reader. Unknown edges (post-plan) are turned
// away here, roster overflow by the roster's cap.
func (r *Root) admitEdge(conn *rpc.Conn, env *rpc.Envelope) {
	id := env.ClientID
	r.mu.Lock()
	if r.topo != nil {
		s := r.topo.Spec(id)
		if s == nil {
			r.mu.Unlock()
			rpc.Reject(conn, fmt.Sprintf("unknown edge %d in a planned topology", id))
			return
		}
		s.Addr = env.Info
		if r.topo.Down[id] {
			// Re-admitted at the round boundary, if it is still there then.
			r.pendingJoin[id] = true
		}
	}
	round := r.round
	r.mu.Unlock()
	p := &rpc.Peer{ID: id, Conn: conn, Ext: &rootEdge{
		lastSeen: time.Now(), clients: env.NumSamples, addr: env.Info, region: env.Region,
	}}
	if r.roster.Admit(p, &rpc.Envelope{Type: rpc.MsgWelcome, Round: round - 1}) != nil {
		return
	}
	r.cfg.Logf("root: edge %d registered from %s (region %q, %d clients)",
		id, env.Info, env.Region, env.NumSamples)
	r.cfg.Events.Emit(obs.Event{Type: "edge_up", Round: round, Client: -1, Edge: id})
	r.met.edgesLive.Inc()
	if !r.roster.Go(func() { r.readEdge(p) }) {
		r.roster.Remove(p)
	}
}

// readEdge consumes one edge connection: heartbeats refresh liveness and
// the reported client count; partials are copied out of the codec
// scratch and posted to the round loop; any error posts a death report
// naming the connection.
func (r *Root) readEdge(p *rpc.Peer) {
	re := p.Ext.(*rootEdge)
	for {
		env, err := p.Conn.Recv()
		if err != nil {
			p.Conn.Close()
			r.post(rootEv{kind: evDown, edge: p.ID, peer: p, err: err})
			return
		}
		r.mu.Lock()
		re.lastSeen = time.Now()
		if env.Type == rpc.MsgPing {
			re.clients = env.NumSamples
		}
		r.mu.Unlock()
		if env.Type == rpc.MsgEdgePartial {
			// The binary codec reuses Params as scratch on the next Recv
			// (the next heartbeat): deep-copy before posting.
			part := &shard.Partial{
				Dim:       len(env.Params),
				Sum:       append([]float64(nil), env.Params...),
				WeightSum: env.WeightSum,
				Count:     env.NumSamples,
			}
			r.post(rootEv{kind: evPartial, edge: p.ID, round: env.Round, part: part})
		}
	}
}

// post delivers a reader event unless the session is over.
func (r *Root) post(e rootEv) {
	select {
	case r.ev <- e:
	case <-r.roster.Done():
	}
}

// watchdog closes connections that have gone silent past the heartbeat
// timeout; the reader's error path turns the close into a death report.
func (r *Root) watchdog() {
	interval := r.cfg.HeartbeatTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.roster.Done():
			return
		case <-t.C:
		}
		edges := r.roster.Snapshot()
		r.mu.Lock()
		stale := edges[:0]
		for _, p := range edges {
			if time.Since(p.Ext.(*rootEdge).lastSeen) > r.cfg.HeartbeatTimeout {
				stale = append(stale, p)
			}
		}
		r.mu.Unlock()
		for _, p := range stale {
			r.cfg.Logf("root: edge %d silent past %v; closing", p.ID, r.cfg.HeartbeatTimeout)
			p.Conn.Close()
		}
	}
}

// admitClient answers one bootstrap request: wait for the assignment to be
// ready, reply with the client's edge address and the topology epoch,
// close. Orphans redialling after a reroute take the same path and learn
// their new edge.
func (r *Root) admitClient(conn *rpc.Conn, env *rpc.Envelope) {
	defer conn.Close()
	id := env.ClientID
	deadline := time.Now().Add(r.cfg.QuorumTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-r.roster.Done():
			return
		default:
		}
		r.mu.Lock()
		ready := r.assignReady
		addr, epoch := "", 0
		known := false
		if ready && id >= 0 && id < len(r.topo.Assign) {
			if s := r.topo.Spec(r.topo.Assign[id]); s != nil {
				addr, epoch, known = s.Addr, r.topo.Epoch, true
			}
		}
		r.mu.Unlock()
		if ready && !known {
			rpc.Reject(conn, fmt.Sprintf("client %d outside the fleet", id))
			return
		}
		if ready {
			conn.SendWithin(5*time.Second, &rpc.Envelope{Type: rpc.MsgReroute, ClientID: id, Round: epoch, Info: addr})
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
