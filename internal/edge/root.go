package edge

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/fl"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
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
	// snapshot file a checkpoint.DeltaWriter replaces behind each next
	// round. A failed write is logged and the session continues.
	CheckpointDir string
	// Resume restores the directory's snapshot when one exists; without
	// it a directory that already holds a snapshot is refused
	// (checkpoint.Open). A snapshot whose Dim/NumEdges/Clients/Rounds
	// disagree with this config is refused with a hard error.
	Resume bool
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
	Specs          []EdgeSpec
	Assign         []int
	Down           []int
	History        []RootRound
	Reroutes       int
	Orphans        int
}

// Round makes rootSnapshot a checkpoint.Meta.
func (m *rootSnapshot) Round() int { return m.CompletedRound }

// rootEdge is the root's own state of one registered edge (rpc.Peer.Ext).
// clients is written by the edge's reader under Root.mu.
type rootEdge struct {
	clients int
	addr    string
}

// Root is the top-tier aggregator: it admits NumEdges regional edges,
// plans the client→edge assignment (Topology.Plan), answers client
// bootstrap requests with MsgReroute, drives rounds by broadcasting the
// go-ahead, and — the headline — moves each orphan of a dead edge to the
// least-loaded surviving edge (Topology.Reroute) while the round completes
// with partial aggregation. Each edge's reader does that work under mu:
// it merges the edge's partial into the round in progress, and on a read
// error — silence past HeartbeatTimeout is one, through the read deadline
// — it retires the edge and reroutes its clients. Run only waits.
type Root struct {
	cfg      RootConfig
	edgeLn   net.Listener
	clientLn net.Listener

	// roster holds the edge connections (a re-registering edge replaces its
	// old connection, and a death report about a replaced connection is
	// stale: Remove says so), serves both listeners and owns the readers
	// and both exits. Its Done ends the session for them.
	roster *rpc.Roster

	mu          sync.Mutex
	topo        *Topology
	assignReady bool
	pendingJoin map[int]bool // down edges that re-registered, admitted at the round boundary
	round       int
	reroutes    int
	orphans     int
	counted     int         // orphans already counted in a round's Rerouted
	cur         *roundMerge // the round in progress (nil between rounds)
	// fatal is the first reroute that found no live edge: every wait and
	// every later reroute returns it.
	fatal error
	// changed is closed and replaced (notifyLocked) whenever something a
	// wait may be waiting for changes: an edge admitted or retired, an
	// edge's client count, the assignment becoming ready, the round's last
	// partial merged.
	changed chan struct{}

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
		changed:     make(chan struct{}),
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
		w, snap, err := checkpoint.Open(r.cfg.CheckpointDir, r.cfg.Resume, r.cfg.Logf)
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

	go r.roster.Serve(r.edgeLn, rpc.MsgEdgeHello, r.admitEdge, r.cfg.Logf)
	go r.roster.Serve(r.clientLn, rpc.MsgHello, r.admitClient, r.cfg.Logf)

	if start >= r.cfg.Rounds {
		// Nothing left to do: the snapshot covers the whole session.
		return r.result(global, history, resumed), nil
	}
	if err := r.awaitEdges(); err != nil {
		return nil, err
	}
	if err := r.planIfNeeded(); err != nil {
		return nil, err
	}
	if err := r.awaitClients(); err != nil {
		return nil, err
	}

	// Every way out of the round loop joins the snapshot still in flight: the
	// last completed round is durable, and the writer's goroutine gone,
	// before Run returns.
	defer r.joinCheckpoint()
	r.mu.Lock()
	r.counted = r.orphans
	r.mu.Unlock()
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
		if err := r.cfg.Events.Flush(); err != nil {
			r.cfg.Logf("root: event log flush after round %d failed: %v", round+1, err)
		}
		if rec.Rerouted > 0 && round < r.cfg.Rounds-1 {
			r.awaitRerouted(round + 1)
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
		return nil, fmt.Errorf("root: refusing to resume from %s round %d: %w", r.cfg.CheckpointDir, snap.Round, err)
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
		Specs:  meta.Specs,
		Assign: meta.Assign,
		Down:   map[int]bool{},
	}
	for _, id := range meta.Down {
		topo.Down[id] = true
	}
	r.mu.Lock()
	r.topo = topo
	r.assignReady = true
	r.notifyLocked()
	r.reroutes = meta.Reroutes
	r.orphans = meta.Orphans
	r.round = meta.CompletedRound + 1
	r.mu.Unlock()
	return &meta, nil
}

// saveCheckpoint joins the previous round's snapshot, captures this round's
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
		Specs:          append([]EdgeSpec(nil), r.topo.Specs...),
		Assign:         append([]int(nil), r.topo.Assign...),
		Down:           down,
		History:        history,
		Reroutes:       r.reroutes,
		Orphans:        r.orphans,
	}
	r.mu.Unlock()
	r.report.Joined(r.ckpt.Snapshot(meta, checkpoint.Vector{Name: "global", Vals: global}))
}

// joinCheckpoint joins the snapshot in flight and makes its event durable
// (checkpoint.Reporter.Join).
func (r *Root) joinCheckpoint() {
	if err := r.report.Join(r.ckpt); err != nil {
		r.cfg.Logf("root: event log flush after the last checkpoint failed: %v", err)
	}
}

// awaitEdges blocks until the expected roster is registered: NumEdges
// distinct edges on a fresh start, every live checkpointed edge on
// resume. On resume, live edges that never resurface within the quorum
// window are declared dead and their clients rerouted — a resumed root
// must not hang forever on an edge that died while it was down.
func (r *Root) awaitEdges() error {
	var missing []int
	ok, err := r.await(r.cfg.QuorumTimeout, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.topo == nil {
			return r.roster.Len() >= r.cfg.NumEdges
		}
		missing = missing[:0]
		for _, s := range r.topo.Live() {
			if r.roster.Peer(s.ID) == nil {
				missing = append(missing, s.ID)
			}
		}
		return len(missing) == 0
	})
	if ok || err != nil {
		return err
	}
	if r.topo == nil {
		return fmt.Errorf("root: only %d of %d edges registered within %v",
			r.roster.Len(), r.cfg.NumEdges, r.cfg.QuorumTimeout)
	}
	sort.Ints(missing)
	for _, id := range missing {
		if err := r.rerouteDead(id, "edge never re-registered after resume"); err != nil {
			return err
		}
	}
	return nil
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
		specs = append(specs, EdgeSpec{ID: p.ID, Addr: p.Ext.(*rootEdge).addr})
	}
	topo, err := NewTopology(specs, r.cfg.Clients)
	if err != nil {
		return err
	}
	if err := topo.Plan(); err != nil {
		return err
	}
	r.topo = topo
	r.assignReady = true
	r.notifyLocked()
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

// fleetConnected reports whether the edges' last counts cover the fleet.
func (r *Root) fleetConnected() bool { return r.connectedClients() >= r.cfg.Clients }

// awaitClients blocks until the edges report a combined client roster
// covering the fleet, so round 0 selects everyone (each edge pushes its
// count the moment it changes, so this wakes on the admission that
// completes the fleet). An edge that dies during the wait is rerouted by
// its reader — one that registers and immediately goes silent must not
// pin its clients to a dead address.
func (r *Root) awaitClients() error {
	ok, err := r.await(r.cfg.QuorumTimeout, r.fleetConnected)
	if ok || err != nil {
		return err
	}
	return fmt.Errorf("root: only %d of %d clients surfaced within %v",
		r.connectedClients(), r.cfg.Clients, r.cfg.QuorumTimeout)
}

// awaitRerouted gives orphans a bounded window to resurface on their new
// edges before round's go-ahead, so a reroute costs at most one round of
// their participation. Best-effort: the session proceeds at the deadline
// regardless. Either way one reroute_wait event records how long round
// waited and how many clients it starts without.
func (r *Root) awaitRerouted(round int) {
	start := time.Now()
	ok, err := r.await(r.cfg.RerouteGrace, r.fleetConnected)
	if err != nil {
		return
	}
	waited := time.Since(start)
	missing := 0
	if ok {
		r.cfg.Logf("root: rerouted clients back after %v", waited.Round(time.Millisecond))
	} else {
		missing = max(r.cfg.Clients-r.connectedClients(), 0)
		r.cfg.Logf("root: reroute grace %v expired with %d clients still missing; round %d starts without them",
			r.cfg.RerouteGrace, missing, round+1)
	}
	r.cfg.Events.Emit(obs.Event{Type: "reroute_wait", Round: round, Client: -1,
		Clients: missing, Seconds: waited.Seconds()})
}

// await is the root's one wait: it returns true once ready holds, false
// when within passes first (ready is asked one last time at the
// deadline), the kept reroute failure once there is one, ErrRootKilled
// when the session ends. It sleeps on the change signal, taken before
// ready runs so a change that lands in between still wakes it.
func (r *Root) await(within time.Duration, ready func() bool) (bool, error) {
	deadline := time.NewTimer(within)
	defer deadline.Stop()
	for {
		r.mu.Lock()
		changed, fatal := r.changed, r.fatal
		r.mu.Unlock()
		if fatal != nil {
			return false, fatal
		}
		select {
		case <-r.roster.Done():
			return false, ErrRootKilled
		default:
		}
		if ready() {
			return true, nil
		}
		select {
		case <-changed:
		case <-deadline.C:
			return ready(), nil
		case <-r.roster.Done():
			return false, ErrRootKilled
		}
	}
}

// notifyLocked wakes every wait (r.mu held).
func (r *Root) notifyLocked() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// roundMerge is the round in progress at the root: the edge connections
// still owed a partial, and the partials merged so far. A partial merges
// when it arrives: the fold is fixed point (shard.Partial), so the order
// the edges answer in does not change the bits.
type roundMerge struct {
	pending map[*rpc.Peer]bool
	part    *shard.Partial
	edges   int // partials merged
}

// runRound drives one round: admit boundary rejoins, broadcast the
// go-ahead, wait for the edges' readers to merge every partial (or
// retire the edge), apply.
func (r *Root) runRound(round int, merged *shard.Partial, global []float64) (RootRound, error) {
	merged.Reset()
	m := &roundMerge{pending: map[*rpc.Peer]bool{}, part: merged}
	var targets []*rpc.Peer
	r.mu.Lock()
	r.round = round
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
	// The go-ahead's targets and the round's pending set are one decision
	// under mu: an edge its reader retires after it strikes itself off,
	// one retired before is not a target, and its reader has rerouted it.
	var missing []int
	for _, s := range r.topo.Live() {
		if p := r.roster.Peer(s.ID); p != nil {
			targets = append(targets, p)
			m.pending[p] = true
		} else {
			missing = append(missing, s.ID)
		}
	}
	r.cur = m
	err := r.fatal // the last live edge died between rounds
	r.mu.Unlock()
	for _, id := range rejoins {
		r.cfg.Logf("root: edge %d re-admitted at round %d boundary", id, round+1)
		r.cfg.Events.Emit(obs.Event{Type: "edge_up", Round: round, Client: -1, Edge: id})
		r.met.edgesLive.Inc()
	}
	if err != nil {
		return RootRound{}, err
	}
	for _, id := range missing {
		if err := r.rerouteDead(id, "not connected at round start"); err != nil {
			return RootRound{}, err
		}
	}

	// The go-ahead is an exchange with no reply: the partials come back
	// through the edges' readers, between their heartbeats. Every edge it
	// failed is retired; fatal is set once that leaves none.
	sel := &rpc.Envelope{Type: rpc.MsgSelect, Round: round, Ratio: 1}
	sent := rpc.Gather(targets, round, rpc.MsgEdgePartial, r.cfg.PartialTimeout, 0,
		func(*rpc.Peer) (rpc.Message, bool) { return sel, false },
		func(p *rpc.Peer, err error) { r.edgeDown(p, fmt.Errorf("select broadcast: %w", err)) })
	r.mu.Lock()
	err = r.fatal
	r.mu.Unlock()
	if err != nil {
		return RootRound{}, err
	}
	if len(sent) == 0 {
		return RootRound{}, fmt.Errorf("root: round %d: no live edges to select", round+1)
	}

	ok, err := r.await(r.cfg.PartialTimeout, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(m.pending) == 0
	})
	if err != nil {
		return RootRound{}, err
	}
	if !ok {
		r.mu.Lock()
		laggards := make([]*rpc.Peer, 0, len(m.pending))
		for p := range m.pending {
			laggards = append(laggards, p)
			delete(m.pending, p)
		}
		r.mu.Unlock()
		sort.Slice(laggards, func(i, j int) bool { return laggards[i].ID < laggards[j].ID })
		for _, p := range laggards {
			if err := r.edgeDown(p, fmt.Errorf("no partial within %v", r.cfg.PartialTimeout)); err != nil {
				return RootRound{}, err
			}
		}
	}

	r.mu.Lock()
	r.cur = nil
	rec := RootRound{
		Round: round, Edges: m.edges, Folded: merged.Count,
		Rerouted: r.orphans - r.counted, WeightSum: merged.Weight(),
	}
	r.counted = r.orphans
	r.mu.Unlock()
	if err := (fl.FedAvg{}).ApplyPartial(global, merged); err != nil {
		r.cfg.Logf("root: round %d: %v", round+1, err)
	}
	r.cfg.Logf("root: round %d: merged %d partials (%d updates, weight %.0f), %d clients rerouted",
		round+1, rec.Edges, rec.Folded, rec.WeightSum, rec.Rerouted)
	r.cfg.Events.Emit(obs.Event{Type: "round", Round: round, Client: -1,
		Clients: r.cfg.Clients, Received: rec.Folded, Selected: rec.Edges})
	return rec, nil
}

// mergePartial merges an edge's partial into the round in progress and
// strikes the edge off the round's pending set; a partial between rounds,
// a duplicate, a stale round or a malformed one is logged and dropped
// without touching what was merged. part is the reader's own receive
// partial: env.Params is the connection's scratch, overwritten by the
// next frame, so the words move there first, outside the lock.
func (r *Root) mergePartial(p *rpc.Peer, env *rpc.Envelope, part *shard.Partial) bool {
	part.WeightSum, part.Count = env.WeightSum, env.NumSamples
	if len(env.Params) == r.cfg.Dim {
		part.SetSlots(env.Params)
	}
	var err error
	r.mu.Lock()
	switch m := r.cur; {
	case m == nil || !m.pending[p]:
		err = fmt.Errorf("unexpected (round %d)", env.Round+1)
	case env.Round != r.round:
		err = fmt.Errorf("stale round %d (want %d)", env.Round+1, r.round+1)
	case len(env.Params) != r.cfg.Dim:
		err = fmt.Errorf("dimension %d (want %d)", len(env.Params), r.cfg.Dim)
	case part.WeightSum < 0:
		err = fmt.Errorf("negative weight sum %v", part.Weight())
	case part.Count < 0:
		err = fmt.Errorf("negative fold count %d", part.Count)
	default:
		m.part.Merge(part)
		m.edges++
		delete(m.pending, p)
		if len(m.pending) == 0 {
			r.notifyLocked()
		}
	}
	r.mu.Unlock()
	if err != nil {
		r.cfg.Logf("root: refusing partial from edge %d: %v", p.ID, err)
	}
	return err == nil
}

// edgeDown retires one edge connection, reroutes its clients and strikes
// it off the round in progress — in that order and under one hold of mu,
// so the round that loses an edge counts its orphans and the next
// go-ahead waits for them. A connection already replaced or retired
// reroutes nothing. It returns fatal, whoever's reroute failed.
func (r *Root) edgeDown(p *rpc.Peer, cause error) error {
	r.mu.Lock()
	removed := r.roster.Remove(p)
	round, report := r.round, func() {}
	if removed {
		report = r.rerouteLocked(p.ID, cause.Error())
	}
	if r.cur != nil {
		delete(r.cur.pending, p)
	}
	r.notifyLocked()
	err := r.fatal
	r.mu.Unlock()
	if removed {
		r.cfg.Logf("root: edge %d down at round %d: %v", p.ID, round+1, cause)
		r.cfg.Events.Emit(obs.Event{Type: "edge_down", Round: round, Client: -1, Edge: p.ID, Reason: cause.Error()})
		r.met.edgesDown.Inc()
	}
	report()
	return err
}

// rerouteDead is rerouteLocked for a caller that does not hold mu.
func (r *Root) rerouteDead(id int, reason string) error {
	r.mu.Lock()
	report := r.rerouteLocked(id, reason)
	err := r.fatal
	r.mu.Unlock()
	report()
	return err
}

// rerouteLocked marks the edge down in the topology and reassigns its
// orphans to the least-loaded survivors (r.mu held); an edge already down
// moves nobody. With no live edge left the session cannot make progress:
// the error is kept in fatal, for every later wait and reroute to return.
// report logs what was done, once the caller has let go of mu.
func (r *Root) rerouteLocked(id int, reason string) (report func()) {
	if r.fatal != nil || r.topo == nil || r.topo.Down[id] {
		return func() {}
	}
	orphans, err := r.topo.Reroute(id)
	if err != nil {
		r.fatal = fmt.Errorf("root: round %d: reroute of edge %d: %w", r.round+1, id, err)
		return func() {}
	}
	r.reroutes++
	r.orphans += len(orphans)
	round, epoch := r.round, r.topo.Epoch
	return func() {
		r.cfg.Logf("root: rerouted %d orphans of edge %d (%s); epoch now %d", len(orphans), id, reason, epoch)
		r.cfg.Events.Emit(obs.Event{Type: "reroute", Round: round, Client: -1, Edge: id,
			Clients: len(orphans), Reason: reason})
		r.met.reroutes.Inc()
		r.met.orphans.Add(int64(len(orphans)))
	}
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
	p := &rpc.Peer{ID: id, Conn: conn, Ext: &rootEdge{clients: env.NumSamples, addr: env.Info}}
	if r.roster.Admit(p, &rpc.Envelope{Type: rpc.MsgWelcome, Round: round - 1}) != nil {
		return
	}
	r.mu.Lock()
	r.notifyLocked()
	r.mu.Unlock()
	r.cfg.Logf("root: edge %d registered from %s (%d clients)", id, env.Info, env.NumSamples)
	r.cfg.Events.Emit(obs.Event{Type: "edge_up", Round: round, Client: -1, Edge: id})
	r.met.edgesLive.Inc()
	// A false Go means the session ended since the welcome: Shutdown, which
	// took p with the roster, says farewell to it (closing p would cut that).
	r.roster.Go(func() { r.readEdge(p) })
}

// readEdge is one edge connection's reader, and does the root's work for
// it: a ping whose client count differs wakes the root's waits, a
// partial merges into the round in progress (mergePartial), and a read
// error retires the edge (edgeDown). Silence is a read error: each read
// has a deadline of HeartbeatTimeout, re-armed per frame until the
// session ends, when Shutdown's farewell drain sets its own. After Kill
// or Shutdown a read error is no death: the roster retires the peer.
func (r *Root) readEdge(p *rpc.Peer) {
	re := p.Ext.(*rootEdge)
	partials := r.cfg.Metrics.Counter("adafl_root_partials_total" + label(p.ID))
	part := shard.NewPartial(r.cfg.Dim)
	done := r.roster.Done()
	var env rpc.Envelope
	for {
		select {
		case <-done:
		default:
			p.Conn.SetReadDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
		}
		if err := p.Conn.RecvInto(&env); err != nil {
			select {
			case <-done:
			default:
				r.edgeDown(p, err)
			}
			return
		}
		switch env.Type {
		case rpc.MsgPing:
			r.mu.Lock()
			if re.clients != env.NumSamples {
				re.clients = env.NumSamples
				r.notifyLocked()
			}
			r.mu.Unlock()
		case rpc.MsgEdgePartial:
			if r.mergePartial(p, &env, part) {
				partials.Inc()
			}
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
	addr, epoch, known := "", 0, false
	ready, _ := r.await(r.cfg.QuorumTimeout, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.assignReady && id >= 0 && id < len(r.topo.Assign) {
			if s := r.topo.Spec(r.topo.Assign[id]); s != nil {
				addr, epoch, known = s.Addr, r.topo.Epoch, true
			}
		}
		return r.assignReady
	})
	if !ready {
		return
	}
	if !known {
		rpc.Reject(conn, fmt.Sprintf("client %d outside the fleet", id))
		return
	}
	conn.SendWithin(5*time.Second, &rpc.Envelope{Type: rpc.MsgReroute, ClientID: id, Round: epoch, Info: addr})
}
