package session

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/compress"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/shard"
	"adafl/internal/tensor"
)

// ErrKilled is returned by AsyncSession.Run when Kill interrupted it:
// the crash-simulation hook for restart/resume testing.
var ErrKilled = fmt.Errorf("session: killed")

// asyncWriteTimeout bounds each per-client send: a model reply, a
// keepalive echo and the farewell.
const asyncWriteTimeout = 10 * time.Second

// AsyncConfig configures a buffered-asynchronous (FedBuff) session.
// Clients cycle pull→train→push with no round barrier; the server folds
// each arriving delta into a shard.Partial-backed buffer, weighting it
// by fl.StalenessWeight of how many model versions its base has aged,
// and applies the buffer once K updates have arrived. Stragglers are
// never evicted for slowness — their cost shows up as staleness-
// histogram mass, not as lost clients.
type AsyncConfig struct {
	// Name labels this session in metrics (session="...") and logs; ""
	// keeps unlabeled series.
	Name string
	// NewModel builds the shared architecture.
	NewModel func() *nn.Model
	// Test, when non-nil, is evaluated after every EvalEvery versions.
	Test *dataset.Dataset
	// EvalEvery is the evaluation cadence in model versions (0 means 1).
	EvalEvery int
	// K is the FedBuff buffer size: arrivals per model-version apply.
	K int
	// MaxStaleness rejects a push whose base model is more than this many
	// versions old (rejected = dropped with a metric and an event, the
	// client stays connected and re-pulls). 0 accepts any staleness.
	MaxStaleness int
	// Eta is the server learning rate applied to the weighted buffer
	// mean (0 means 1).
	Eta float64
	// Versions is the training budget: the session shuts down after
	// producing this many model versions.
	Versions int
	// MaxClients is the admission cap (0 = unbounded).
	MaxClients int
	// MaxUpdateNorm enables the shard tree's causal median-relative norm
	// gate; quarantined senders are evicted. 0 disables it.
	MaxUpdateNorm float64
	// Shards is the fold-worker count (0 means 1).
	Shards int
	// CheckpointDir, when non-empty, persists every model version as one
	// epoch of a checkpoint.DeltaWriter chain.
	CheckpointDir string
	// Resume restores the latest epoch in CheckpointDir and continues from
	// its model version. Without Resume, a directory that already holds a
	// chain is refused rather than silently intermixed (checkpoint.Open).
	Resume bool
	// RebaseEvery overrides the delta chain's full-rebase cadence
	// (0 = checkpoint.DefaultRebaseEvery).
	RebaseEvery int
	// Metrics, when non-nil, receives the async instrument set, labeled
	// session=Name (catalogue in DESIGN.md §Async mode).
	Metrics *obs.Registry
	// Events, when non-nil, receives one JSONL record per push, stale
	// rejection, quarantine, version apply and checkpoint; flushed at
	// every version boundary.
	Events *obs.EventLog
	// Logf receives progress lines (log.Printf if nil).
	Logf func(format string, args ...interface{})
}

// AsyncResult summarises a completed async session.
type AsyncResult struct {
	// Versions is the model version the session ended at.
	Versions int
	// FinalAcc is the last evaluated test accuracy (0 if never evaluated).
	FinalAcc float64
	// Pushes counts updates accepted into the buffer (quarantined folds
	// included — they are screened inside the shard workers).
	Pushes int
	// StaleRejected counts pushes dropped for exceeding MaxStaleness.
	StaleRejected int
	// StalenessCounts histograms accepted pushes by staleness (version
	// delta between the global and the push's base model).
	StalenessCounts map[int]int
	// Quarantines lists updates rejected by the integrity screen.
	Quarantines []shard.QuarantineRecord
	// Evictions counts clients dropped for quarantined updates. Slowness
	// never evicts in async mode.
	Evictions int
	// BytesReceived is the total uplink volume across all clients.
	BytesReceived int64
	// ResumedFrom is the model version the session resumed at (-1 for a
	// fresh session).
	ResumedFrom int
}

// arrival is one MsgAsyncPush handed from a connection goroutine to the
// engine. The delta is freshly allocated (conn.Recv, not the scratch
// path), so it survives the channel crossing.
type arrival struct {
	client int
	base   int // model version the delta was trained from
	delta  *compress.Sparse
	// done is the sending connection's channel (capacity 1, at most one
	// push in flight per connection): Run signals it once the push is
	// folded or dropped, and the connection waits for that before reading
	// its next message, so a client's pull always sees the effect of its
	// own earlier push.
	done chan<- struct{}
}

// AsyncSession is the buffered-asynchronous engine. Construction
// (including resume) happens in NewAsync; deliver admits connections
// from a Manager at any time after that; Run executes the engine until
// the version budget or Kill. Its connection plane is an rpc.Roster
// (a duplicate id is turned away); what is its own is serve, the
// persistent per-connection reader.
type AsyncSession struct {
	cfg AsyncConfig
	met asyncMetrics
	dim int

	model *nn.Model
	tree  *shard.Tree

	// Published model snapshot: an immutable (params, version) pair
	// replaced wholesale at each apply, so pull handlers serve it without
	// engine coordination.
	snapMu      sync.RWMutex
	snapParams  []float64
	snapVersion int

	arrivals chan arrival
	// roster owns the connections, the serve goroutines (Go), the uplink
	// byte total and both exits; its Done releases a serve goroutine blocked
	// on the arrivals channel once the engine has stopped draining it.
	roster *rpc.Roster
	// resumedBytes is the uplink total the snapshot carried in.
	resumedBytes int64

	ckpt     *checkpoint.DeltaWriter
	report   *checkpoint.Reporter
	buffered int // arrivals folded since the last apply
	res      *AsyncResult
}

// asyncSnapshot is the meta section of an async session's snapshot; the
// model rides beside it as the "global" vector.
type asyncSnapshot struct {
	Version         int
	K               int
	FinalAcc        float64
	Pushes          int
	StaleRejected   int
	Evictions       int
	StalenessCounts map[int]int
	Quarantines     []shard.QuarantineRecord
	BytesReceived   int64
}

// Round makes asyncSnapshot a checkpoint.Meta: the label is the version.
func (m *asyncSnapshot) Round() int { return m.Version }

// NewAsync validates the config, restores the delta chain when resuming
// and returns the session, ready for a Manager to route connections to.
func NewAsync(cfg AsyncConfig) (*AsyncSession, error) {
	if cfg.NewModel == nil {
		return nil, fmt.Errorf("session: async needs NewModel")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("session: async buffer size K must be >= 1, got %d", cfg.K)
	}
	if cfg.Versions < 1 {
		return nil, fmt.Errorf("session: async needs a positive Versions budget, got %d", cfg.Versions)
	}
	if cfg.MaxStaleness < 0 {
		return nil, fmt.Errorf("session: negative MaxStaleness %d", cfg.MaxStaleness)
	}
	if cfg.Eta == 0 {
		cfg.Eta = 1
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	model := cfg.NewModel()
	global := model.ParamVector()
	a := &AsyncSession{
		cfg:      cfg,
		met:      newAsyncMetrics(cfg.Metrics, cfg.Name),
		dim:      len(global),
		model:    model,
		arrivals: make(chan arrival, cfg.K),
		roster:   rpc.NewRoster(false),
		res:      &AsyncResult{ResumedFrom: -1, StalenessCounts: map[int]int{}},
	}
	a.report = checkpoint.NewReporter(cfg.Metrics, cfg.Name, cfg.Events, func(version int, err error) {
		cfg.Logf("session %q: checkpoint at version %d failed (continuing): %v", cfg.Name, version, err)
	})
	a.roster.Cap = cfg.MaxClients
	a.roster.Instrument(cfg.Metrics, cfg.Name)
	version := 0
	if cfg.CheckpointDir != "" {
		w, snap, err := checkpoint.Open(cfg.CheckpointDir, cfg.Resume, checkpoint.DeltaOptions{RebaseEvery: cfg.RebaseEvery}, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		a.ckpt = w
		if snap != nil {
			var meta asyncSnapshot
			if err := snap.Restore(&meta, checkpoint.Vector{Name: "global", Vals: global}); err != nil {
				return nil, fmt.Errorf("session: resume from %s epoch %d: %w", cfg.CheckpointDir, snap.Epoch, err)
			}
			version = meta.Version
			a.res.FinalAcc = meta.FinalAcc
			a.res.Pushes = meta.Pushes
			a.res.StaleRejected = meta.StaleRejected
			a.res.Evictions = meta.Evictions
			a.res.BytesReceived = meta.BytesReceived
			a.resumedBytes = meta.BytesReceived
			if meta.StalenessCounts != nil {
				a.res.StalenessCounts = meta.StalenessCounts
			}
			a.res.Quarantines = meta.Quarantines
			a.res.ResumedFrom = version
			cfg.Logf("session %q: resumed async session at model version %d", cfg.Name, version)
		}
	}
	if version >= cfg.Versions {
		return nil, fmt.Errorf("session: resume from %s: version %d already meets the %d-version budget",
			cfg.CheckpointDir, version, cfg.Versions)
	}
	a.tree = shard.NewTree(shard.Config{
		Shards:      cfg.Shards,
		Dim:         a.dim,
		MaxNormMult: cfg.MaxUpdateNorm,
		Metrics:     cfg.Metrics,
		Logf:        shard.Logf(cfg.Logf),
	})
	a.publish(append([]float64(nil), global...), version)
	return a, nil
}

// publish replaces the served model snapshot. params must not be
// mutated after the call.
func (a *AsyncSession) publish(params []float64, version int) {
	a.snapMu.Lock()
	a.snapParams, a.snapVersion = params, version
	a.snapMu.Unlock()
}

// snapshot returns the current immutable (params, version) pair.
func (a *AsyncSession) snapshot() ([]float64, int) {
	a.snapMu.RLock()
	defer a.snapMu.RUnlock()
	return a.snapParams, a.snapVersion
}

// Version returns the current model version.
func (a *AsyncSession) Version() int {
	_, v := a.snapshot()
	return v
}

// deliver admits a connection whose hello rpc.Accept has read and the
// Manager routed here. The engine owns the connection from then on; the
// hello envelope is only valid during the call. Safe any time after
// NewAsync.
func (a *AsyncSession) deliver(conn *rpc.Conn, hello *rpc.Envelope) error {
	_, version := a.snapshot()
	p := &rpc.Peer{ID: hello.ClientID, Conn: conn, Samples: hello.NumSamples}
	if err := a.roster.Admit(p, &rpc.Envelope{Type: rpc.MsgWelcome, Round: version}); err != nil {
		return err
	}
	a.cfg.Logf("session %q: client %d registered (%d samples) at model version %d", a.cfg.Name, p.ID, p.Samples, version)
	if !a.roster.Go(func() { a.serve(p) }) {
		a.roster.Remove(p) // the session ended between the welcome and here
	}
	return nil
}

// serve is the per-connection receive loop: answer pulls from the
// published snapshot, relay pushes to the engine, echo pings. A push is
// read-your-writes: the loop does not read the connection's next message
// until the engine has folded it, because clients pipeline push→pull and
// a pull answered before the fold would hand back a version (hence a
// staleness weight on the next push) that depends on goroutine timing.
// It exits on any wire error (the client redials and re-registers). Once
// the engine has stopped (the roster's Done) it only discards: a push or
// pull already in flight is read, not answered with a reset, until the
// client has read its farewell and closed (Roster.Shutdown).
func (a *AsyncSession) serve(p *rpc.Peer) {
	defer a.roster.Remove(p)
	id, conn := p.ID, p.Conn
	stopped := a.roster.Done()
	folded := make(chan struct{}, 1)
	for {
		e, err := conn.Recv() // fresh: push deltas outlive this iteration
		if err != nil {
			return
		}
		select {
		case <-stopped:
			continue
		default:
		}
		switch e.Type {
		case rpc.MsgAsyncPull:
			params, version := a.snapshot()
			a.met.pulls.Inc()
			if err := conn.SendWithin(asyncWriteTimeout, &rpc.Envelope{Type: rpc.MsgModel, Round: version, Params: params}); err != nil {
				return
			}
		case rpc.MsgAsyncPush:
			if e.Update == nil {
				a.cfg.Logf("session %q: client %d push without update", a.cfg.Name, id)
				return
			}
			select {
			case a.arrivals <- arrival{client: id, base: e.Round, delta: e.Update, done: folded}:
				select {
				case <-folded:
				case <-stopped:
				}
			case <-stopped:
			}
		case rpc.MsgPing:
			if err := conn.SendWithin(asyncWriteTimeout, &rpc.Envelope{Type: rpc.MsgPing, Round: e.Round}); err != nil {
				return
			}
		default:
			a.cfg.Logf("session %q: client %d sent unexpected %v", a.cfg.Name, id, e.Type)
			return
		}
	}
}

// Kill simulates a server crash for restart testing: every connection is
// torn down with no farewell and Run returns ErrKilled. State not yet
// checkpointed (the partial FedBuff buffer) is lost, as in a real crash.
func (a *AsyncSession) Kill() { a.roster.Kill() }

// Run executes the engine: fold arrivals, apply every K-th, checkpoint,
// until the version budget is met (clean shutdown with farewells) or
// Kill (ErrKilled). The caller runs exactly one Run per session.
func (a *AsyncSession) Run() (*AsyncResult, error) {
	defer a.tree.Close()
	defer a.joinCheckpoint()
	res := a.res
	var err error
	for err == nil && a.Version() < a.cfg.Versions {
		select {
		case <-a.roster.Done():
			err = ErrKilled
		case arr := <-a.arrivals:
			a.fold(arr)
			arr.done <- struct{}{}
		}
	}
	// Budget met: the farewells go out while the serve goroutines still hold
	// their sockets open, and Shutdown returns when every client has closed
	// (or been given up on) and every serve goroutine is gone. Kill, here,
	// joins them.
	if err != nil {
		a.roster.Kill()
	} else {
		a.roster.Shutdown(fmt.Sprintf("done: %d model versions, final acc %.3f", a.Version(), res.FinalAcc), asyncWriteTimeout)
	}
	res.Versions = a.Version()
	res.BytesReceived = a.bytesReceived()
	return res, err
}

// bytesReceived is the session's uplink total: what a resumed snapshot
// carried in plus what the roster has counted since.
func (a *AsyncSession) bytesReceived() int64 {
	up, _ := a.roster.Bytes()
	return a.resumedBytes + up
}

// fold ingests one arrival, applying the buffer when it reaches K.
func (a *AsyncSession) fold(arr arrival) {
	_, version := a.snapshot()
	staleness := version - arr.base
	if staleness < 0 {
		// A base version from the future is protocol junk, not staleness.
		a.cfg.Logf("session %q: client %d pushed base version %d ahead of global %d, dropping",
			a.cfg.Name, arr.client, arr.base, version)
		return
	}
	if max := a.cfg.MaxStaleness; max > 0 && staleness > max {
		a.res.StaleRejected++
		a.met.stale.Inc()
		a.cfg.Events.Emit(obs.Event{Type: "stale", Round: version, Client: arr.client,
			Reason: fmt.Sprintf("staleness %d > %d", staleness, max)})
		return
	}
	a.met.staleness.Observe(float64(staleness))
	a.res.StalenessCounts[staleness]++
	a.tree.Ingest(version, shard.Update{
		Client: arr.client,
		Weight: fl.StalenessWeight(staleness),
		Delta:  arr.delta,
	})
	a.buffered++
	a.res.Pushes++
	a.met.pushes.Inc()
	a.cfg.Events.Emit(obs.Event{Type: "push", Round: version, Client: arr.client,
		Bytes: int64(arr.delta.WireBytes()), Norm: float64(staleness)})
	if a.buffered >= a.cfg.K {
		a.apply()
	}
}

// apply drains the buffer into a new model version: the FedBuff weighted
// mean global += Eta·Σwᵢdᵢ/Σwᵢ, with wᵢ = fl.StalenessWeight — pinned
// equal to fl.FedBuff by TestAsyncBufferMatchesFedBuff.
func (a *AsyncSession) apply() {
	part, quarantined := a.tree.Finish()
	a.buffered = 0
	params, version := a.snapshot()
	for _, q := range quarantined {
		a.met.quarantines.Inc()
		a.res.Evictions++
		a.cfg.Events.Emit(obs.Event{Type: "quarantine", Round: version, Client: q.ClientID,
			Reason: q.Reason, Norm: q.Norm})
		a.cfg.Logf("session %q: quarantined update from client %d: %s", a.cfg.Name, q.ClientID, q.Reason)
		// The only eviction cause: slowness just accrues staleness.
		if p := a.roster.Peer(q.ClientID); p != nil {
			a.roster.Remove(p)
		}
	}
	a.res.Quarantines = append(a.res.Quarantines, quarantined...)
	if part.Count == 0 || part.WeightSum <= 0 {
		// The whole buffer was quarantined: no version advances, the
		// global is bitwise unaffected by the rejected mass.
		return
	}
	next := append([]float64(nil), params...)
	tensor.Axpy(a.cfg.Eta/part.WeightSum, part.Sum, next)
	version++
	a.publish(next, version)
	a.met.versions.Inc()

	acc := math.NaN()
	if a.cfg.Test != nil && version%a.cfg.EvalEvery == 0 {
		a.model.SetParamVector(next)
		acc, _ = a.model.EvaluateBatched(a.cfg.Test.X, a.cfg.Test.Labels, 64)
		a.res.FinalAcc = acc
		a.met.accuracy.Set(acc)
		a.cfg.Logf("session %q: version %d acc=%.3f buffered=%d", a.cfg.Name, version, acc, part.Count)
	}
	a.cfg.Events.Emit(obs.Event{Type: "version", Round: version, Client: -1,
		Received: part.Count, Acc: obs.AccValue(acc)})

	if a.ckpt != nil {
		a.saveCheckpoint(version, next)
	}
	if err := a.cfg.Events.Flush(); err != nil {
		a.cfg.Logf("session %q: event log flush failed: %v", a.cfg.Name, err)
	}
}

// saveCheckpoint joins the previous version's epoch, captures this
// version's and leaves it writing behind the arrivals of the next.
func (a *AsyncSession) saveCheckpoint(version int, params []float64) {
	meta := &asyncSnapshot{
		Version:         version,
		K:               a.cfg.K,
		FinalAcc:        a.res.FinalAcc,
		Pushes:          a.res.Pushes,
		StaleRejected:   a.res.StaleRejected,
		Evictions:       a.res.Evictions,
		StalenessCounts: a.res.StalenessCounts,
		Quarantines:     a.res.Quarantines,
		BytesReceived:   a.bytesReceived(),
	}
	a.report.Joined(a.ckpt.Snapshot(meta, checkpoint.Vector{Name: "global", Vals: params}))
}

// joinCheckpoint waits for the epoch in flight, if any: the last published
// version is durable, and the writer's goroutine gone, before Run returns.
func (a *AsyncSession) joinCheckpoint() {
	if a.ckpt != nil {
		a.report.Joined(a.ckpt.Wait())
		if err := a.cfg.Events.Flush(); err != nil {
			a.cfg.Logf("session %q: event log flush failed: %v", a.cfg.Name, err)
		}
	}
}
