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
	// LinkFor maps a registering edge to its access and uplink link
	// models (nil = WiFi access, Ethernet uplink for everyone).
	LinkFor func(id int, region string) (access, uplink netsim.Link)
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
	gen   int
	round int
	part  *shard.Partial
	err   error
}

// rootEdge is one registered edge connection. gen disambiguates a stale
// connection's death from the replacement that superseded it.
type rootEdge struct {
	id       int
	gen      int
	conn     *rpc.Conn
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

	mu          sync.Mutex
	edges       map[int]*rootEdge
	topo        *Topology
	assignReady bool
	pendingJoin map[int]bool // down edges that re-registered, admitted at the round boundary
	round       int
	gen         int
	reroutes    int
	orphans     int
	killed      bool

	ev       chan rootEv
	done     chan struct{}
	doneOnce sync.Once

	ckpt *checkpoint.DeltaWriter // touched only by Run's goroutine
	met  rootMetrics
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
	if cfg.LinkFor == nil {
		cfg.LinkFor = func(int, string) (netsim.Link, netsim.Link) {
			return netsim.WiFiLink, netsim.EthernetLink
		}
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
	return &Root{
		cfg:      cfg,
		edgeLn:   edgeLn,
		clientLn: clientLn,
		edges:    map[int]*rootEdge{},

		pendingJoin: map[int]bool{},
		ev:          make(chan rootEv, 64),
		done:        make(chan struct{}),
		met:         newRootMetrics(cfg.Metrics),
	}, nil
}

// EdgeAddr returns the bound edge-facing address.
func (r *Root) EdgeAddr() string { return r.edgeLn.Addr().String() }

// BootstrapAddr returns the bound client bootstrap address.
func (r *Root) BootstrapAddr() string { return r.clientLn.Addr().String() }

// Kill simulates a root crash: both listeners and every edge connection
// drop with no farewells. Run returns ErrRootKilled.
func (r *Root) Kill() {
	r.mu.Lock()
	r.killed = true
	conns := make([]*rpc.Conn, 0, len(r.edges))
	for _, re := range r.edges {
		conns = append(conns, re.conn)
	}
	r.mu.Unlock()
	r.doneOnce.Do(func() { close(r.done) })
	r.edgeLn.Close()
	r.clientLn.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (r *Root) isKilled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.killed
}

// Run drives the session: restore-or-plan, registration and client
// quorum, then Rounds rounds of select → collect → merge → checkpoint.
func (r *Root) Run() (*RootResult, error) {
	defer func() {
		r.doneOnce.Do(func() { close(r.done) })
		r.edgeLn.Close()
		r.clientLn.Close()
		// Drop every edge link so edges observe the exit (a clean finish
		// already said goodbye via broadcastShutdown; an error exit must
		// not leave them blocked on a live socket).
		r.mu.Lock()
		conns := make([]*rpc.Conn, 0, len(r.edges))
		for _, re := range r.edges {
			conns = append(conns, re.conn)
		}
		r.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()

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

	go r.acceptLoop(r.edgeLn, r.admitEdge)
	go r.acceptLoop(r.clientLn, r.admitClient)
	go r.watchdog()

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
		if r.isKilled() {
			return nil, ErrRootKilled
		}
		r.cfg.Events.Flush()
		if rec.Rerouted > 0 && round < r.cfg.Rounds-1 {
			r.awaitRerouted()
		}
	}

	r.broadcastShutdown(fmt.Sprintf("session done: %d rounds", r.cfg.Rounds))
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
	r.checkpointJoined(r.ckpt.Snapshot(meta, checkpoint.Vector{Name: "global", Vals: global}))
}

// checkpointJoined reports a joined epoch under its own round, like the
// flat server's: how long the round loop blocked for it and its outcome.
func (r *Root) checkpointJoined(res checkpoint.DeltaResult, ok bool) {
	if !ok {
		return
	}
	r.met.ckptWaitSec.Observe(res.WaitSeconds)
	if res.Err != nil {
		r.cfg.Logf("root: checkpoint after round %d failed (continuing): %v", res.Label+1, res.Err)
		return
	}
	r.met.ckptSec.Observe(res.Seconds)
	r.met.ckptBytes.Set(float64(res.Size))
	r.cfg.Events.Emit(obs.Event{Type: "checkpoint", Round: res.Label, Client: -1, Bytes: res.Size, Seconds: res.Seconds})
}

// joinCheckpoint waits for the epoch in flight, if any.
func (r *Root) joinCheckpoint() {
	if r.ckpt != nil {
		r.checkpointJoined(r.ckpt.Wait())
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
			ready = len(r.edges) >= r.cfg.NumEdges
		} else {
			ready = true
			for _, s := range r.topo.Live() {
				if r.edges[s.ID] == nil {
					ready = false
					missing = append(missing, s.ID)
				}
			}
		}
		killed := r.killed
		r.mu.Unlock()
		if killed {
			return ErrRootKilled
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			if r.topo == nil {
				return fmt.Errorf("root: only %d of %d edges registered within %v",
					len(r.edges), r.cfg.NumEdges, r.cfg.QuorumTimeout)
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
	specs := make([]EdgeSpec, 0, len(r.edges))
	for id, re := range r.edges {
		access, uplink := r.cfg.LinkFor(id, re.region)
		specs = append(specs, EdgeSpec{
			ID: id, Addr: re.addr, Region: re.region, Access: access, Uplink: uplink,
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

func (r *Root) currentRound() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.round
}

// awaitClients blocks until the edges report a combined client roster
// covering the fleet, so round 0 selects everyone (counts arrive via
// heartbeats, so this lags by at most one ping interval). Edge deaths
// during the wait are drained and rerouted — an edge that registers and
// immediately goes silent must not pin its clients to a dead address.
func (r *Root) awaitClients() error {
	deadline := time.Now().Add(r.cfg.QuorumTimeout)
	for {
		if err := r.drainEvents(r.currentRound()); err != nil {
			return err
		}
		r.mu.Lock()
		n := 0
		for _, re := range r.edges {
			n += re.clients
		}
		killed := r.killed
		r.mu.Unlock()
		if killed {
			return ErrRootKilled
		}
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
		r.mu.Lock()
		n := 0
		for _, re := range r.edges {
			n += re.clients
		}
		killed := r.killed
		r.mu.Unlock()
		if killed || n >= r.cfg.Clients {
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
		if r.edges[id] != nil {
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
	type target struct {
		id, gen int
		conn    *rpc.Conn
	}
	var targets []target
	var missing []int
	for _, s := range r.topo.Live() {
		if re := r.edges[s.ID]; re != nil {
			targets = append(targets, target{id: re.id, gen: re.gen, conn: re.conn})
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

	sel := &rpc.Envelope{Type: rpc.MsgSelect, Round: round, Ratio: 1}
	pending := map[int]bool{}
	for _, t := range targets {
		if err := t.conn.Send(sel); err != nil {
			if err := r.handleDown(round, t.id, t.gen, fmt.Errorf("select broadcast: %w", err)); err != nil {
				return RootRound{}, err
			}
			continue
		}
		pending[t.id] = true
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
				r.mu.Lock()
				re := r.edges[id]
				r.mu.Unlock()
				gen := -1
				if re != nil {
					gen = re.gen
					re.conn.Close() // the reader's death report is gen-checked away
				}
				if err := r.handleDown(round, id, gen, fmt.Errorf("no partial within %v", r.cfg.PartialTimeout)); err != nil {
					return RootRound{}, err
				}
			}
			break collect
		case <-r.done:
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
		if err := r.handleDown(round, e.edge, e.gen, e.err); err != nil {
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

// handleDown retires one edge connection (gen-checked: a report about a
// connection that has already been replaced is ignored) and reroutes its
// clients.
func (r *Root) handleDown(round, id, gen int, cause error) error {
	r.mu.Lock()
	re := r.edges[id]
	if re == nil || (gen >= 0 && re.gen != gen) {
		r.mu.Unlock()
		return nil // stale report: the edge already re-registered
	}
	delete(r.edges, id)
	r.mu.Unlock()
	re.conn.Close()
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

// acceptLoop feeds one listener's connections to admit until close.
func (r *Root) acceptLoop(ln net.Listener, admit func(net.Conn)) {
	for {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		go admit(raw)
	}
}

// admitEdge handles one edge registration: handshake, edge hello, install
// (or replace) the roster entry, welcome, spawn the reader. Unknown edges
// (post-plan) and roster overflow are turned away.
func (r *Root) admitEdge(raw net.Conn) {
	conn, env, err := rpc.Accept(raw, rpc.MsgEdgeHello)
	if err != nil {
		return
	}
	id := env.ClientID
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		conn.Close()
		return
	}
	reject := ""
	if r.topo != nil && r.topo.Spec(id) == nil {
		reject = fmt.Sprintf("unknown edge %d in a planned topology", id)
	} else if r.topo == nil && len(r.edges) >= r.cfg.NumEdges && r.edges[id] == nil {
		reject = fmt.Sprintf("edge roster full (%d)", r.cfg.NumEdges)
	}
	if reject != "" {
		r.mu.Unlock()
		conn.Send(&rpc.Envelope{Type: rpc.MsgShutdown, Info: reject})
		conn.Close()
		return
	}
	if old := r.edges[id]; old != nil {
		old.conn.Close()
	}
	r.gen++
	re := &rootEdge{
		id: id, gen: r.gen, conn: conn, lastSeen: time.Now(),
		clients: env.NumSamples, addr: env.Info, region: env.Region,
	}
	r.edges[id] = re
	if r.topo != nil {
		if s := r.topo.Spec(id); s != nil {
			s.Addr = env.Info
		}
		if r.topo.Down[id] {
			r.pendingJoin[id] = true
		}
	}
	round := r.round
	r.mu.Unlock()
	if err := conn.Send(&rpc.Envelope{Type: rpc.MsgWelcome, Round: round - 1}); err != nil {
		conn.Close()
		return
	}
	r.cfg.Logf("root: edge %d registered from %s (region %q, %d clients)",
		id, env.Info, env.Region, env.NumSamples)
	r.cfg.Events.Emit(obs.Event{Type: "edge_up", Round: round, Client: -1, Edge: id})
	r.met.edgesLive.Inc()
	go r.readEdge(re)
}

// readEdge consumes one edge connection: heartbeats refresh liveness and
// the reported client count; partials are copied out of the codec
// scratch and posted to the round loop; any error posts a gen-tagged
// death report.
func (r *Root) readEdge(re *rootEdge) {
	for {
		env, err := re.conn.Recv()
		if err != nil {
			re.conn.Close()
			r.post(rootEv{kind: evDown, edge: re.id, gen: re.gen, err: err})
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
			r.post(rootEv{kind: evPartial, edge: re.id, gen: re.gen, round: env.Round, part: part})
		}
	}
}

// post delivers a reader event unless the session is over.
func (r *Root) post(e rootEv) {
	select {
	case r.ev <- e:
	case <-r.done:
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
		case <-r.done:
			return
		case <-t.C:
		}
		r.mu.Lock()
		var stale []*rootEdge
		for _, re := range r.edges {
			if time.Since(re.lastSeen) > r.cfg.HeartbeatTimeout {
				stale = append(stale, re)
			}
		}
		r.mu.Unlock()
		for _, re := range stale {
			r.cfg.Logf("root: edge %d silent past %v; closing", re.id, r.cfg.HeartbeatTimeout)
			re.conn.Close()
		}
	}
}

// admitClient answers one bootstrap request: read the hello, wait for the
// assignment to be ready, reply with the client's edge address and the
// topology epoch, close. Orphans redialling after a reroute take the same
// path and learn their new edge.
func (r *Root) admitClient(raw net.Conn) {
	conn, env, err := rpc.Accept(raw, rpc.MsgHello)
	if err != nil {
		return
	}
	id := env.ClientID
	deadline := time.Now().Add(r.cfg.QuorumTimeout)
	for {
		r.mu.Lock()
		ready, killed := r.assignReady, r.killed
		addr, epoch := "", 0
		known := false
		if ready && id >= 0 && id < len(r.topo.Assign) {
			if s := r.topo.Spec(r.topo.Assign[id]); s != nil {
				addr, epoch, known = s.Addr, r.topo.Epoch, true
			}
		}
		r.mu.Unlock()
		if killed {
			conn.Close()
			return
		}
		if ready {
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if !known {
				conn.Send(&rpc.Envelope{Type: rpc.MsgShutdown, Info: fmt.Sprintf("client %d outside the fleet", id)})
			} else {
				conn.Send(&rpc.Envelope{Type: rpc.MsgReroute, ClientID: id, Round: epoch, Info: addr})
			}
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			conn.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// broadcastShutdown ends the session for every connected edge.
func (r *Root) broadcastShutdown(info string) {
	r.mu.Lock()
	conns := make([]*rpc.Conn, 0, len(r.edges))
	for _, re := range r.edges {
		conns = append(conns, re.conn)
	}
	r.mu.Unlock()
	for _, c := range conns {
		c.Send(&rpc.Envelope{Type: rpc.MsgShutdown, Info: info})
		c.Close()
	}
}
