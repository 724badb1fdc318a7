package rpc

import (
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/scenario"
	"adafl/internal/shard"
	"adafl/internal/tensor"
)

// DefaultStragglerTimeout bounds each collect phase when the caller does
// not configure one.
const DefaultStragglerTimeout = 30 * time.Second

// ServerConfig configures a federation server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":7070".
	Addr string
	// NumClients is how many registrations to wait for before round 1.
	NumClients int
	// Rounds is the training budget.
	Rounds int
	// Cfg is the AdaFL configuration (selection + compression).
	Cfg core.Config
	// NewModel builds the shared architecture.
	NewModel func() *nn.Model
	// Test, when non-nil, is evaluated after every EvalEvery rounds.
	Test      *dataset.Dataset
	EvalEvery int
	// Logf receives progress lines (log.Printf if nil).
	Logf func(format string, args ...interface{})

	// StragglerTimeout bounds each per-client collect (score and update).
	// A client that has not answered within it is evicted and the round
	// proceeds with the partial set. 0 means DefaultStragglerTimeout.
	StragglerTimeout time.Duration
	// WriteTimeout bounds each per-client send. 0 means StragglerTimeout.
	WriteTimeout time.Duration
	// MinClients is the roster floor: when evictions leave fewer live
	// clients, the session ends cleanly with the rounds completed so far
	// instead of erroring. 0 means 1.
	MinClients int
	// OnRound, when non-nil, is invoked synchronously after each round
	// (after the round's snapshot, if any, has been captured; its write
	// may still be in flight).
	OnRound func(RoundRecord)

	// CheckpointDir, when non-empty, makes the session crash-safe: every
	// completed round is captured by a checkpoint.DeltaWriter as the
	// directory's one snapshot file (global params, previous global delta,
	// selector state, round history, accounting) and written behind the
	// next round; round r is durable before round r+1's snapshot begins and
	// before Run returns. A failed write is logged and training continues;
	// the file stays the previous round's. Without Resume a directory that
	// already holds a snapshot is refused.
	CheckpointDir string
	// DeltaCheckpoints is inert: nothing reads it. It is kept only because
	// bench/train.go sets it.
	DeltaCheckpoints bool
	// Resume restores the snapshot in CheckpointDir on startup and
	// continues from the round after the last completed one. With no
	// snapshot present the session starts fresh (so a supervisor can
	// always pass Resume); a corrupt snapshot is a hard error — training
	// silently from scratch would masquerade as a resumed session.
	Resume bool
	// MaxUpdateNorm is the update-integrity outlier gate: a received
	// update whose L2 norm exceeds MaxUpdateNorm times the round's
	// median update norm is quarantined (rejected, logged, client
	// evicted) instead of aggregated. 0 disables the gate. Structural
	// validation (index bounds, length pairing) and NaN/Inf scrubbing
	// are always on.
	MaxUpdateNorm float64
	// Shards is ignored: the fold's bits do not depend on a shard count
	// (shard.Partial), so the server folds through one shard. The field
	// stays only because bench/ sets it (ROADMAP item 1).
	Shards int
	// Metrics, when non-nil, receives the server's operational metrics:
	// round/phase latencies, uplink/downlink bytes, evictions,
	// quarantines, reconnects, utility-score and compression-ratio
	// distributions (metric catalogue in DESIGN.md §Observability). Nil
	// disables metrics at zero cost.
	Metrics *obs.Registry
	// Events, when non-nil, receives one structured JSONL record per
	// round event: selection with scores, per-client ratio assignment,
	// update received/evicted/quarantined, aggregation, the round
	// summary, and checkpoint saves. The log is flushed (and fsynced)
	// at every round boundary.
	Events *obs.EventLog
	// Wire accepts only "" or WireBinary and selects nothing (see
	// WireBinary); any other value is an error.
	Wire string
	// Scenario, when non-nil, overlays a declarative fleet scenario on
	// the session: per-round availability (diurnal waves, correlated
	// regional outages, battery depletion) gates selection, each
	// delivered update drains its client's battery by the round's
	// training time and transmitted bytes, and battery level scales the
	// utility score before Algorithm 1 ranks it. The fleet's state joins
	// the session checkpoint so -resume rejoins the schedule
	// mid-scenario. The round loop drives the fleet single-threadedly;
	// callers must not touch it while Run is live.
	Scenario *scenario.Fleet
	// ScenarioLog, when non-nil, receives one deterministic JSONL record
	// per round describing the scenario schedule (availability,
	// depletions, outages, battery levels). Unlike the wall-clock-stamped
	// event log, these lines are byte-identical across runs of the same
	// scenario — the observable the golden replay tests compare.
	ScenarioLog io.Writer
	// Negotiation, when Enabled, turns on per-round codec negotiation:
	// each selected client's Select broadcast carries a codec+ratio (and,
	// for the quantizing codec, a level count) derived from its observed
	// link state — EWMA uplink bytes, the scenario's bandwidth multiplier
	// for the round, and the utility-ranked plan. Assignments are a pure
	// function of (config, round, plan, recorded history), so negotiated
	// sessions replay byte-identically and survive checkpoint/resume; the
	// negotiator's state joins the session snapshot and a resume under a
	// different negotiation config is refused.
	Negotiation core.NegotiationConfig
	// AssignLog, when non-nil, receives one deterministic JSONL record
	// per negotiated round listing the assignments sorted by client id.
	// Like ScenarioLog, lines are byte-identical across replays of the
	// same session — the observable the negotiation golden tests compare.
	AssignLog io.Writer
}

// RoundRecord is the server's per-round log entry.
type RoundRecord struct {
	Round    int
	Clients  int // live roster size at round start
	Selected int
	Received int // updates that passed integrity screening and were aggregated
	Evicted  int // clients evicted during this round (deadline, link or quarantine)
	// Quarantined counts updates rejected by the integrity screen this
	// round (a subset of Evicted).
	Quarantined int
	TestAcc     float64
	Bytes       int64 // uplink bytes received during this round
}

// ServerResult summarises a completed session.
type ServerResult struct {
	Rounds   []RoundRecord
	FinalAcc float64
	// BytesReceived is the total uplink volume across all clients,
	// accumulated round by round (evicted clients included).
	BytesReceived int64
	// Evictions counts clients dropped for deadline misses or dead links.
	Evictions int
	// EndedEarly is set when the roster fell below MinClients and the
	// session stopped before completing the configured rounds.
	EndedEarly bool
	// Quarantines lists the most recent updates rejected by the integrity
	// screen across the session (including rounds restored from a
	// checkpoint), bounded by shard.QuarantineLogCap.
	Quarantines []QuarantineRecord
	// QuarantinesDropped counts older quarantine records discarded to
	// keep Quarantines within the cap.
	QuarantinesDropped int
	// ResumedFrom is the round the session resumed at (-1 for a fresh
	// session): Rounds[:ResumedFrom] were restored from the checkpoint,
	// the rest were run by this process.
	ResumedFrom int
}

// Server drives synchronous AdaFL over TCP. The round engine is straggler-
// and fault-tolerant: broadcasts and collects run concurrently per client
// under per-phase deadlines (Exchange), laggards and dead links are evicted
// with their samples removed from the FedAvg normalisation, and evicted or
// late clients may re-register (a re-Hello) to join at the next round.
type Server struct {
	cfg      ServerConfig
	listener net.Listener

	// roster is the connection plane: admission (a duplicate id is turned
	// away), the live clients, byte totals, Kill and the farewell. A client
	// that registers mid-round is live at once and joins at the next round's
	// Snapshot, the only point where the lockstep protocol can take it.
	roster    *Roster
	nextRound atomic.Int64 // round a client registering now will join

	prevBytes int64 // cumulative uplink total at end of previous round
	prevSent  int64 // cumulative downlink total at end of previous round

	met serverMetrics

	quarantines        []QuarantineRecord // touched only by the round loop goroutine
	quarantinesDropped int                // records discarded by the log cap
	tree               *shard.Tree        // aggregation tree the screened round folds through
	planner            *core.SyncPlanner  // the round decision, wired as flsim wires it
	neg                *core.Negotiator   // the planner's negotiator, fed each accepted upload (nil when Negotiation is off)
	ckpt               *checkpoint.DeltaWriter
	report             *checkpoint.Reporter
	// broadcast is the round's model frame, encoded once for every peer
	// and re-encoded in place the next round: Exchange has written it
	// everywhere, or given up, before it returns.
	broadcast Frame
}

// ErrServerKilled is returned by Run when Kill interrupted the session:
// the crash-simulation hook for restart/resume testing.
var ErrServerKilled = fmt.Errorf("rpc: server killed")

// prepareConfig validates and defaults a ServerConfig.
func prepareConfig(cfg ServerConfig) (ServerConfig, error) {
	if cfg.NumClients <= 0 || cfg.Rounds <= 0 {
		return cfg, fmt.Errorf("rpc: need positive NumClients and Rounds")
	}
	if cfg.MinClients > cfg.NumClients {
		return cfg, fmt.Errorf("rpc: MinClients %d exceeds NumClients %d", cfg.MinClients, cfg.NumClients)
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
	}
	if cfg.StragglerTimeout <= 0 {
		cfg.StragglerTimeout = DefaultStragglerTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = cfg.StragglerTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	if err := checkWire(cfg.Wire); err != nil {
		return cfg, err
	}
	if cfg.CheckpointDir != "" {
		// Creating the directory here surfaces a bad path at construction
		// instead of when Run opens it.
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return cfg, fmt.Errorf("rpc: checkpoint dir: %w", err)
		}
	}
	return cfg, nil
}

// NewServer validates cfg, binds the listen socket (so callers know the
// port before clients dial) and returns the server.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg, err := prepareConfig(cfg)
	if err != nil {
		return nil, err
	}
	// The planner is wired as the simulator wires it (cmd/flsim): the
	// scenario gates and scales the scores and its trace is the
	// negotiator's bandwidth multiplier.
	planner := core.NewSyncPlanner(cfg.Cfg)
	planner.Metrics = cfg.Metrics
	if cfg.Negotiation.Enabled {
		if planner.Negotiator, err = core.NewNegotiator(cfg.Negotiation, cfg.Cfg.Compression); err != nil {
			return nil, err
		}
	}
	if sc := cfg.Scenario; sc != nil {
		planner.Eligible, planner.ScoreMult = sc.Available, sc.ScoreMult
		planner.BandwidthMult = func(_, round int) float64 { return sc.TraceMult(round) }
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		listener: ln,
		roster:   NewRoster(false),
		met:      newServerMetrics(cfg.Metrics),
		planner:  planner,
		neg:      planner.Negotiator,
		report: checkpoint.NewReporter(cfg.Metrics, "", cfg.Events, func(round int, err error) {
			cfg.Logf("server: checkpoint after round %d failed (continuing): %v", round+1, err)
		}),
	}
	s.roster.Instrument(cfg.Metrics, "")
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Run accepts NumClients registrations, executes the configured rounds
// (tolerating stragglers, dead links and re-joins), shuts the surviving
// clients down and returns the session result. With CheckpointDir set,
// every completed round is snapshotted; with Resume set, the session
// restores the snapshot and continues from the round after the crash.
func (s *Server) Run() (*ServerResult, error) {
	model := s.cfg.NewModel()
	global := model.ParamVector()
	globalDelta := make([]float64, len(global))

	// The round's updates are checked and folded once the last has
	// arrived, and judged at the barrier (Collect).
	s.tree = shard.NewTree(shard.Config{
		Shards:      1,
		Dim:         len(global),
		MaxNormMult: s.cfg.MaxUpdateNorm,
		Metrics:     s.cfg.Metrics,
		Logf:        s.cfg.Logf,
	})

	res := &ServerResult{ResumedFrom: -1}
	lastSel := s.planner.LastSel() // client id -> last round it was selected
	if s.cfg.CheckpointDir != "" {
		w, snap, err := checkpoint.Open(s.cfg.CheckpointDir, s.cfg.Resume, s.cfg.Logf)
		if err == nil && snap != nil {
			if err = s.restore(snap, global, globalDelta, lastSel, res); err != nil {
				err = fmt.Errorf("resume from %s round %d: %w", s.cfg.CheckpointDir, snap.Round, err)
			}
		}
		if err != nil {
			s.listener.Close()
			return nil, fmt.Errorf("rpc: %w", err)
		}
		s.ckpt = w
	}
	startRound := max(res.ResumedFrom, 0)
	if startRound >= s.cfg.Rounds {
		// Crash landed after the final round's checkpoint: nothing left
		// to train. Don't block on a quorum that may never re-form; any
		// straggling redials are turned away with a shutdown notice.
		s.shutdown(fmt.Sprintf("done (resumed complete session): %d rounds, final acc %.3f",
			len(res.Rounds), res.FinalAcc))
		return res, nil
	}
	s.nextRound.Store(int64(startRound))

	go s.roster.Serve(s.listener, MsgHello, s.deliver, s.cfg.Logf)
	if err := s.roster.Wait(s.cfg.NumClients); err != nil {
		s.shutdown("listener failed")
		if s.roster.Killed() {
			// Kill landed before the quorum formed.
			err = ErrServerKilled
		}
		return nil, err
	}

	// Every way out of the round loop — budget met, EndedEarly, Kill — joins
	// the snapshot still in flight: the last completed round is durable, and
	// the writer's goroutine gone, before Run returns.
	defer s.joinCheckpoint()
	for round := startRound; round < s.cfg.Rounds; round++ {
		s.nextRound.Store(int64(round + 1)) // registrations from here on join the next round
		roster := s.roster.Snapshot()
		if live := len(roster); live < s.cfg.MinClients {
			s.cfg.Logf("server: %d live clients < MinClients %d, ending session after %d rounds",
				live, s.cfg.MinClients, len(res.Rounds))
			res.EndedEarly = true
			break
		}
		rec := s.runRound(round, roster, model, global, globalDelta)
		res.Rounds = append(res.Rounds, rec)
		res.BytesReceived += rec.Bytes
		res.Evictions += rec.Evicted
		if !math.IsNaN(rec.TestAcc) && rec.TestAcc > 0 {
			res.FinalAcc = rec.TestAcc
		}
		res.Quarantines = s.quarantines
		res.QuarantinesDropped = s.quarantinesDropped
		if s.ckpt != nil {
			s.saveCheckpoint(round, global, globalDelta, lastSel, res)
		}
		// Round boundary: make the round's event records crash-durable.
		if err := s.cfg.Events.Flush(); err != nil {
			s.cfg.Logf("server: event log flush after round %d failed: %v", round+1, err)
		}
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(rec)
		}
		if s.roster.Killed() {
			return res, ErrServerKilled
		}
	}
	s.shutdown(fmt.Sprintf("done: %d rounds, final acc %.3f", len(res.Rounds), res.FinalAcc))
	return res, nil
}

// Kill simulates a server crash for restart testing: the listener and
// every connection are torn down with no farewell messages, and Run
// returns ErrServerKilled at the next round boundary (at once, before the
// quorum has formed). State not yet checkpointed is lost, exactly as in a
// real crash.
func (s *Server) Kill() {
	s.roster.Kill()
	s.listener.Close()
}

// deliver registers a connection that Accept has admitted and whose hello
// it returned; the hello envelope is only read during the call. A
// rejected connection is closed after a shutdown notice (Roster.Admit).
// The welcome's Round tells a redialling client it is joining a resumed
// or in-progress session, not round 0.
func (s *Server) deliver(conn *Conn, hello *Envelope) {
	s.met.wireBinary.Inc()
	next := int(s.nextRound.Load())
	p := &Peer{ID: hello.ClientID, Conn: conn, Samples: hello.NumSamples}
	if err := s.roster.Admit(p, &Envelope{Type: MsgWelcome, Round: next}); err != nil {
		s.cfg.Logf("server: client %d not admitted: %v", p.ID, err)
		return
	}
	s.cfg.Logf("server: client %d registered (%d samples), joins at round %d", p.ID, p.Samples, next+1)
}

// runRound executes one federated round against the current roster. It
// never fails the session: clients that error or dawdle are evicted and
// the round aggregates whatever arrived in time (Received may be smaller
// than Selected).
func (s *Server) runRound(round int, roster []*Peer, model *nn.Model, global, globalDelta []float64) RoundRecord {
	rec := RoundRecord{Round: round, TestAcc: math.NaN()}
	roundStart := time.Now()
	if s.cfg.Scenario != nil {
		// Advance the scenario clock first: availability and battery
		// state for this round are fixed here, before any network I/O,
		// so the schedule cannot depend on message timing.
		s.cfg.Scenario.BeginRound(round)
	}
	rec.Clients = len(roster)
	totalSamples := 0
	for _, p := range roster {
		totalSamples += p.Samples
	}

	// A peer that fails a phase, or whose update the tree quarantines, is
	// evicted: its weight leaves the renormalisation, the global is bitwise
	// unaffected by a rejected update, and a later re-Hello may return it.
	drop := func(p *Peer, err error) {
		s.roster.Remove(p)
		s.met.evictions.Inc()
		s.cfg.Events.Emit(obs.Event{Type: "evict", Round: round, Client: p.ID, Reason: err.Error()})
		s.cfg.Logf("server: round %d: evicting client %d: %v", round+1, p.ID, err)
		rec.Evicted++
	}

	// Phase 1+2: broadcast + score collection, one exchange. The broadcast
	// is encoded once and every peer is written the same bytes. A zero ĝ
	// (the warm-up) is not sent: the wire reads an absent vector as an
	// empty one, and a client scores an empty ĝ as a zero one.
	warmup := tensor.IsZero(globalDelta)
	sentDelta := globalDelta
	if warmup {
		sentDelta = nil
	}
	s.broadcast.Set(&Envelope{Type: MsgModel, Round: round, Params: global, GlobalDelta: sentDelta})
	alive := Gather(roster, round, MsgScore, s.cfg.WriteTimeout, s.cfg.StragglerTimeout,
		func(*Peer) (Message, bool) { return &s.broadcast, true }, drop)
	ids := make([]int, len(alive))
	scores := make([]float64, len(alive))
	for k, p := range alive {
		ids[k], scores[k] = p.ID, p.Env.Score
	}
	s.met.wireBinary.Add(int64(len(alive)))
	s.met.scoreSec.Observe(time.Since(roundStart).Seconds())

	// Phase 3+4: selection, then concurrent notify + update collection.
	// The planner drops the clients the scenario has offline (they stay
	// connected and receive a ratio-0 select, the protocol's not-selected
	// path) and ranks the rest; under negotiation each pick's assignment
	// supersedes its ranked ratio.
	d := s.planner.Decide(round, ids, scores, warmup)
	rec.Selected = len(d.Picks)
	scored := make(map[int]float64, len(d.IDs))
	for k, id := range d.IDs {
		scored[id] = d.Scores[k]
	}
	s.logAssignments(round, d.Assign)
	s.cfg.Events.Emit(obs.Event{Type: "selection", Round: round, Client: -1, Scores: scored, Ratios: d.Ratios})
	updatePhaseStart := time.Now()
	received, part, quarantined := Collect(s.tree, alive, round, s.cfg.WriteTimeout, s.cfg.StragglerTimeout,
		func(p *Peer) (Message, bool) {
			sel := &Envelope{Type: MsgSelect, Round: round, Ratio: d.Ratios[p.ID]} // 0 when not selected this round
			if a, ok := d.Assign[p.ID]; ok {
				// Negotiated order: the assignment's codec+ratio (and level
				// count) supersede the plan's bare ratio.
				sel.Ratio, sel.Codec, sel.Levels = a.Ratio, a.Codec, a.Levels
			}
			return sel, sel.Ratio > 0
		},
		func(p *Peer) float64 { return float64(p.Samples) / float64(totalSamples) }, drop)
	s.met.updateSec.Observe(time.Since(updatePhaseStart).Seconds())
	// Account the round's uploads in roster order, the quarantined ones too.
	for _, p := range received {
		upd := p.Env.Update
		s.met.wireBinary.Inc()
		if s.neg != nil {
			// Per-client EWMA fold: order-independent across clients,
			// so receipt order cannot perturb the replayed assignments.
			s.neg.RecordUpload(p.ID, upd.WireBytes())
		}
		s.met.updRatios.Observe(upd.CompressionRatio())
		if sc := s.cfg.Scenario; sc != nil {
			// Energy accounting: one round of training plus the
			// update's wire bytes, against the client's class battery.
			sc.Account(p.ID, sc.TrainSeconds(p.ID), int64(upd.WireBytes()))
		}
		s.cfg.Events.Emit(obs.Event{Type: "update", Round: round, Client: p.ID, Bytes: int64(upd.WireBytes())})
	}
	rec.Quarantined = len(quarantined)
	for _, q := range quarantined {
		s.met.quarantines.Inc()
		s.cfg.Events.Emit(obs.Event{Type: "quarantine", Round: round, Client: q.ClientID, Reason: q.Reason, Norm: q.Norm})
	}
	s.quarantines, s.quarantinesDropped = shard.AppendQuarantines(s.quarantines, s.quarantinesDropped, quarantined...)

	// Apply the merged partial (FedAvg weighted by sample counts of the
	// round's roster; the 1/WeightSum renormalisation keeps the average
	// well-formed when some selected updates never arrive).
	aggStart := time.Now()
	rec.Received = part.Count
	if err := fl.ApplyRound(fl.FedAvg{}, global, globalDelta, part); err != nil {
		s.cfg.Logf("server: round %d: %v", round+1, err)
	}
	s.cfg.Events.Emit(obs.Event{Type: "aggregate", Round: round, Client: -1,
		Received: rec.Received, Seconds: time.Since(aggStart).Seconds()})

	// Phase 5: evaluate.
	if s.cfg.Test != nil && (round+1)%s.cfg.EvalEvery == 0 {
		model.SetParamVector(global)
		acc, _ := model.EvaluateBatched(s.cfg.Test.X, s.cfg.Test.Labels, 64)
		rec.TestAcc = acc
		s.cfg.Logf("server: round %d acc=%.3f selected=%d received=%d clients=%d",
			round+1, acc, rec.Selected, rec.Received, rec.Clients)
	}
	total, sent := s.roster.Bytes()
	rec.Bytes = total - s.prevBytes
	s.prevBytes = total

	s.met.rounds.Inc()
	s.met.bytesUp.Add(rec.Bytes)
	s.met.bytesDown.Add(sent - s.prevSent)
	s.prevSent = sent
	s.met.roundSec.Observe(time.Since(roundStart).Seconds())
	s.met.clients.Set(float64(rec.Clients))
	s.met.selected.Set(float64(rec.Selected))
	s.met.received.Set(float64(rec.Received))
	if !math.IsNaN(rec.TestAcc) {
		s.met.accuracy.Set(rec.TestAcc)
	}
	s.cfg.Events.Emit(obs.Event{Type: "round", Round: round, Client: -1,
		Clients: rec.Clients, Selected: rec.Selected, Received: rec.Received,
		Evicted: rec.Evicted, Quarantined: rec.Quarantined, Bytes: rec.Bytes,
		Acc: obs.AccValue(rec.TestAcc)})
	if sc := s.cfg.Scenario; sc != nil {
		if err := sc.EmitRound(s.cfg.ScenarioLog, round); err != nil {
			s.cfg.Logf("server: round %d: scenario log write failed: %v", round+1, err)
		}
		sc.RecordMetrics(s.cfg.Metrics)
	}
	return rec
}

// logAssignments writes one JSONL record for the round's negotiated
// assignments, sorted by client id. The encoding is hand-rolled and
// wall-clock-free so the lines are byte-identical across replays of the
// same session (the golden observable, like ScenarioLog).
func (s *Server) logAssignments(round int, asn map[int]core.CodecAssignment) {
	if s.cfg.AssignLog == nil || len(asn) == 0 {
		return
	}
	ids := make([]int, 0, len(asn))
	for id := range asn {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, `{"round":%d,"assign":[`, round)
	for i, id := range ids {
		a := asn[id]
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"client":%d,"codec":%q,"ratio":%g,"levels":%d}`, id, a.Codec, a.Ratio, a.Levels)
	}
	b.WriteString("]}\n")
	if _, err := io.WriteString(s.cfg.AssignLog, b.String()); err != nil {
		s.cfg.Logf("server: round %d: assignment log write failed: %v", round+1, err)
	}
}

// shutdown ends the session for every registered client: the farewell
// under its own deadline, then the drain (Roster.Shutdown).
func (s *Server) shutdown(info string) {
	s.roster.Shutdown(info, s.cfg.WriteTimeout)
	s.listener.Close()
}

// sessionSnapshot is the meta section of the session's snapshot, taken after
// every completed round: with the "global" and "gdelta" vectors, everything
// needed to continue from round CompletedRound+1 in a fresh process.
// NumClients/Rounds let a resume under changed flags say so.
// SelectorLastSel is each client's last selected round, as
// checkpoint.SortedPairs. Chains whose meta also carries a shard count
// (and older ones S zero partials) still decode: gob skips a field this
// struct lacks.
type sessionSnapshot struct {
	CompletedRound  int
	NumClients      int
	Rounds          int
	SelectorLastSel [][2]int
	History         []RoundRecord
	Quarantines     []QuarantineRecord
	// QuarantinesDropped counts records the log cap discarded before this
	// snapshot.
	QuarantinesDropped int
	BytesReceived      int64
	Evictions          int
	FinalAcc           float64
	// Scenario is the fleet-scenario state (battery levels, depletion
	// latches, integration clock) as of the completed round; nil when the
	// session runs without a scenario.
	Scenario *scenario.State
	// Negotiation is the codec negotiator's config and per-client link
	// history; nil when negotiation is disabled. A resume must carry the
	// same negotiation configuration (including enabled-ness) or it is
	// refused — the assignment stream would silently diverge otherwise.
	Negotiation *core.NegotiationState
}

// Round makes sessionSnapshot a checkpoint.Meta.
func (m *sessionSnapshot) Round() int { return m.CompletedRound }

// saveCheckpoint snapshots the session after a completed round: it joins
// the previous round's snapshot, captures this one here, on the round loop,
// and leaves it writing behind the next round.
func (s *Server) saveCheckpoint(round int, global, globalDelta []float64,
	lastSel map[int]int, res *ServerResult) {
	meta := &sessionSnapshot{
		CompletedRound:     round,
		NumClients:         s.cfg.NumClients,
		Rounds:             s.cfg.Rounds,
		SelectorLastSel:    checkpoint.SortedPairs(lastSel),
		History:            res.Rounds,
		Quarantines:        s.quarantines,
		QuarantinesDropped: s.quarantinesDropped,
		BytesReceived:      res.BytesReceived,
		Evictions:          res.Evictions,
		FinalAcc:           res.FinalAcc,
	}
	if s.cfg.Scenario != nil {
		meta.Scenario = s.cfg.Scenario.Snapshot()
	}
	if s.neg != nil {
		meta.Negotiation = s.neg.Snapshot()
	}
	s.report.Joined(s.ckpt.Snapshot(meta,
		checkpoint.Vector{Name: "global", Vals: global},
		checkpoint.Vector{Name: "gdelta", Vals: globalDelta}))
}

// joinCheckpoint joins the snapshot in flight and makes its event durable
// (checkpoint.Reporter.Join).
func (s *Server) joinCheckpoint() {
	if err := s.report.Join(s.ckpt); err != nil {
		s.cfg.Logf("server: event log flush after the last checkpoint failed: %v", err)
	}
}

// restore loads a resumed session's state from the directory's snapshot
// into the caller's vectors, lastSel and res and into the server's own
// stateful parts. A snapshot from a different model or configuration is
// fatal: silently training from scratch would masquerade as a resumed
// session.
func (s *Server) restore(snap *checkpoint.Snapshot, global, globalDelta []float64,
	lastSel map[int]int, res *ServerResult) error {
	var meta sessionSnapshot
	if err := snap.Restore(&meta,
		checkpoint.Vector{Name: "global", Vals: global},
		checkpoint.Vector{Name: "gdelta", Vals: globalDelta}); err != nil {
		return err
	}
	if meta.CompletedRound < 0 || meta.CompletedRound >= s.cfg.Rounds {
		return fmt.Errorf("completed round %d outside session of %d rounds", meta.CompletedRound, s.cfg.Rounds)
	}
	if meta.NumClients != s.cfg.NumClients || meta.Rounds != s.cfg.Rounds {
		s.cfg.Logf("server: resume: snapshot taken with %d clients / %d rounds, now %d / %d",
			meta.NumClients, meta.Rounds, s.cfg.NumClients, s.cfg.Rounds)
	}
	for _, kv := range meta.SelectorLastSel {
		lastSel[kv[0]] = kv[1]
	}
	res.Rounds = meta.History
	res.BytesReceived = meta.BytesReceived
	res.Evictions = meta.Evictions
	res.FinalAcc = meta.FinalAcc
	// Re-bound: a snapshot is input from disk and may carry more records.
	s.quarantines, s.quarantinesDropped = shard.AppendQuarantines(meta.Quarantines, meta.QuarantinesDropped)
	res.Quarantines = s.quarantines
	res.QuarantinesDropped = s.quarantinesDropped
	res.ResumedFrom = meta.CompletedRound + 1
	if s.cfg.Scenario != nil {
		if meta.Scenario != nil {
			// A snapshot from a different scenario (name, seed or fleet
			// size) is refused: continuing would splice two unrelated
			// schedules together and the replayed run would diverge from an
			// uninterrupted one.
			if err := s.cfg.Scenario.Restore(meta.Scenario); err != nil {
				return err
			}
		} else {
			s.cfg.Logf("server: resume: snapshot has no scenario state; energy accounting restarts from the scenario's initial conditions")
		}
	} else if meta.Scenario != nil {
		s.cfg.Logf("server: resume: ignoring scenario state %q in snapshot (no -scenario configured)", meta.Scenario.Name)
	}
	// Negotiation state must match exactly: the assignment stream is a pure
	// function of (config, history), so resuming with negotiation toggled
	// or reconfigured would silently diverge from the uninterrupted run.
	// Restore refuses a config mismatch.
	switch {
	case s.neg != nil && meta.Negotiation != nil:
		if err := s.neg.Restore(meta.Negotiation); err != nil {
			return err
		}
	case s.neg != nil:
		return fmt.Errorf("snapshot has no negotiation state but negotiation is enabled; rerun without -negotiate or start fresh")
	case meta.Negotiation != nil:
		return fmt.Errorf("snapshot is from a negotiated session; rerun with -negotiate")
	}
	s.cfg.Logf("server: resumed session at round %d (%d rounds restored, final acc so far %.3f)",
		res.ResumedFrom+1, len(meta.History), meta.FinalAcc)
	return nil
}
