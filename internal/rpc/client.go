package rpc

import (
	"errors"
	"fmt"
	"log"
	"time"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// ClientConfig configures a federation client process.
type ClientConfig struct {
	// Addr is the server address.
	Addr string
	// Session routes the registration to a named session on a
	// multi-session control plane ("" = the default session). At most 255
	// bytes on the binary wire.
	Session string
	// Async switches the client to the buffered-asynchronous protocol:
	// instead of lockstep rounds it cycles pull→train→push against an
	// async session (flserver async) with no selection or negotiation
	// exchange. AsyncRatio sets the uplink compression ratio for async
	// pushes (0 means 1: uncompressed).
	Async      bool
	AsyncRatio float64
	// ID is the client's unique index (0-based).
	ID int
	// Data is the client's local shard.
	Data *dataset.Dataset
	// NewModel builds the shared architecture.
	NewModel func() *nn.Model
	// LocalSteps/BatchSize/LR/Momentum configure local SGD.
	LocalSteps, BatchSize int
	LR, Momentum          float64
	// Utility configures the locally computed utility score.
	Utility core.UtilityConfig
	// UpBps/DownBps are the declared link bandwidths an unpaced client
	// reports into its utility score. A client on a link (Fault.Link)
	// reports the link's rates instead.
	UpBps, DownBps float64
	// Bandwidth, when non-nil, overrides the base rates per round — the
	// scenario engine's per-class multipliers and bandwidth traces
	// evaluate here (pure function of the round index, so server and
	// client agree without coordination). The round's pair goes into the
	// utility score and, on a link, sets the rates the socket is paced at.
	Bandwidth func(round int) (upBps, downBps float64)
	// Codec names the default uplink codec: "dgc" (momentum-corrected
	// top-k with error feedback), "dadaquant", "qsgd", "terngrad",
	// "topk" or "identity". "" picks "dgc" in sync mode and "topk" in
	// async mode (DGC's momentum correction presumes lockstep rounds).
	// A negotiated Select assignment overrides it per round.
	Codec string
	// DGC configures the uplink codec.
	DGCMomentum, DGCClip, DGCMsgClip float64
	// Seed drives batching.
	Seed uint64
	// Logf receives progress lines (log.Printf if nil).
	Logf func(format string, args ...interface{})

	// MaxRetries bounds how many consecutive failed redial/re-Hello
	// attempts the client tolerates after losing the connection (0 =
	// fail on first loss). The budget resets whenever a connection makes
	// progress (receives at least one message). Training state —
	// optimizer momentum, batch iterator, DGC residuals — is preserved
	// across reconnects; the model resyncs from the server's next
	// broadcast.
	MaxRetries int
	// RetryBackoff is the initial redial backoff window; the window
	// doubles per consecutive failure, capped at 5s, and each wait is
	// drawn uniformly from [0, window) (full jitter, seeded from Seed)
	// so a fleet redialling a restarted server doesn't reconnect in
	// lockstep. 0 means 200ms.
	RetryBackoff time.Duration
	// DialTimeout bounds each dial attempt. 0 means 10s.
	DialTimeout time.Duration
	// Fault, when non-nil, puts the client on a paced link and injects
	// its fault events (see FaultConfig). Losses and jitter draw from
	// Seed and the session's own dial count.
	Fault *FaultConfig

	// Wire accepts only "" or WireBinary and selects nothing (see
	// WireBinary); any other value is an error.
	Wire string

	// Metrics, when non-nil, receives the client's operational metrics
	// (redials, backoff waits, local-training latency, uploads, bytes
	// sent). Nil disables metrics at zero cost.
	Metrics *obs.Registry
}

// ClientResult summarises a completed client session.
type ClientResult struct {
	Rounds     int
	Uploads    int
	BytesSent  int64
	Reconnects int
}

// errProtocol marks unrecoverable protocol violations: reconnecting
// cannot fix a peer that speaks the wrong protocol.
var errProtocol = errors.New("protocol violation")

// RunClient connects to the server and participates until shutdown. Lost
// connections are retried (Redial) up to MaxRetries; a reconnected client
// re-registers and resumes at the server's next round.
func RunClient(cfg ClientConfig) (*ClientResult, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if err := checkWire(cfg.Wire); err != nil {
		return nil, err
	}
	sess, err := newClientSession(cfg)
	if err != nil {
		return nil, err
	}
	// Jitter from a stream decorrelated from the batch iterator's: both
	// derive from Seed, but Split mixes the state so the redial schedule
	// does not echo the batch order.
	err = Redial(cfg.MaxRetries, cfg.RetryBackoff, stats.NewRNG(cfg.Seed).Split(), sess.runOnce,
		func(retry int, wait time.Duration, err error) {
			sess.met.redials.Inc()
			sess.met.backoffSec.Observe(wait.Seconds())
			sess.res.Reconnects++
			cfg.Logf("client %d: link lost (%v); reconnect %d/%d in %v",
				cfg.ID, err, retry, cfg.MaxRetries, wait)
		})
	return sess.res, err
}

// rollbackCodec is the deferred-commit surface of an error-feedback codec
// (DGC): an encode stays staged until the upload is known to have landed,
// so a failed or rejected upload can return its mass to the residuals.
type rollbackCodec interface {
	Rollback()
	Commit()
}

// clientSession holds the state that survives reconnects.
type clientSession struct {
	cfg   ClientConfig
	model *nn.Model
	opt   *nn.SGD
	iter  *dataset.Iterator
	codec compress.Codec      // default uplink codec (ClientConfig.Codec)
	dgc   *compress.DGC       // negotiated-dgc instance (the default one when it is a DGC)
	dada  *compress.DAdaQuant // negotiated quantizer, built on first assignment
	// pending is the codec with a staged, uncommitted encode: committed
	// when the next receive proves the server took the upload, rolled
	// back when the connection dies first (the server evicted us or the
	// link failed — either way the update never joined the aggregate).
	pending rollbackCodec
	link    *pacer // paces every connection dialled (nil = unpaced)
	dials   int
	res     *ClientResult
	met     clientMetrics
}

// newUplinkCodec builds the named default codec. The stochastic codecs
// get RNG streams decorrelated from the batch iterator's by fixed salts.
func newUplinkCodec(cfg ClientConfig) (compress.Codec, error) {
	name := cfg.Codec
	if name == "" {
		// DGC's momentum correction presumes lockstep rounds: in the
		// continuous async push loop it accumulates across pushes and
		// inflates every delta, so async mode defaults to plain top-k
		// (exact at AsyncRatio 1) instead.
		if cfg.Async {
			name = "topk"
		} else {
			name = "dgc"
		}
	}
	switch name {
	case "dgc":
		d := &compress.DGC{Momentum: cfg.DGCMomentum, ClipNorm: cfg.DGCClip, MsgClipFactor: cfg.DGCMsgClip}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		return d, nil
	case "dadaquant":
		return compress.NewDAdaQuant(15, 63, 8, stats.NewRNG(cfg.Seed^0xdada)), nil
	case "qsgd":
		return compress.NewQSGD(15, stats.NewRNG(cfg.Seed^0x95bd)), nil
	case "terngrad":
		return compress.NewTernGrad(stats.NewRNG(cfg.Seed ^ 0x7e26)), nil
	case "topk":
		return &compress.TopK{}, nil
	case "identity":
		return compress.Identity{}, nil
	}
	return nil, fmt.Errorf("rpc: unknown uplink codec %q", name)
}

func newClientSession(cfg ClientConfig) (*clientSession, error) {
	codec, err := newUplinkCodec(cfg)
	if err != nil {
		return nil, err
	}
	var link *pacer
	if cfg.Fault != nil && cfg.Fault.Link != nil {
		if err := cfg.Fault.Link.Validate(); err != nil {
			return nil, fmt.Errorf("rpc: client %d: %w", cfg.ID, err)
		}
		link = &pacer{link: *cfg.Fault.Link}
		cfg.UpBps, cfg.DownBps = link.link.UpBps, link.link.DownBps
	}
	s := &clientSession{
		cfg:   cfg,
		link:  link,
		model: cfg.NewModel(),
		opt:   nn.NewSGD(cfg.LR, cfg.Momentum, 0),
		iter:  dataset.NewIterator(cfg.Data, cfg.BatchSize, stats.NewRNG(cfg.Seed)),
		codec: codec,
		res:   &ClientResult{},
		met:   newClientMetrics(cfg.Metrics),
	}
	if d, ok := codec.(*compress.DGC); ok {
		s.dgc = d
	}
	if d, ok := codec.(*compress.DAdaQuant); ok {
		s.dada = d
	}
	return s, nil
}

// negotiatedCodec resolves a Select assignment's codec name against the
// session's instances, building them on first use. An empty name is the
// session default; an unknown one is a protocol violation (the server
// and client disagree on the negotiation vocabulary).
func (s *clientSession) negotiatedCodec(name string) (compress.Codec, error) {
	switch name {
	case "", s.codec.Name():
		return s.codec, nil
	case core.CodecDGC:
		if s.dgc == nil {
			s.dgc = &compress.DGC{Momentum: s.cfg.DGCMomentum, ClipNorm: s.cfg.DGCClip, MsgClipFactor: s.cfg.DGCMsgClip}
		}
		return s.dgc, nil
	case core.CodecDAdaQuant:
		if s.dada == nil {
			// Wide bounds: the server's explicit per-round level count
			// (clamped by SetLevels) is the real control.
			s.dada = compress.NewDAdaQuant(1, 1<<20, 8, stats.NewRNG(s.cfg.Seed^0xdada))
		}
		return s.dada, nil
	}
	return nil, fmt.Errorf("unknown negotiated codec %q", name)
}

// train runs the local steps from the received global model, the
// broadcast's float32 params, and returns local − global as the two
// float32 vectors it is the difference of: the model's parameters and
// global (tensor.DeltaOf32). It is read from them, so it holds until the
// model next changes or the receive scratch holding global is reused.
func (s *clientSession) train(global []float32) tensor.Delta {
	s.model.SetParams32(global)
	trainStart := time.Now()
	for step := 0; step < s.cfg.LocalSteps; step++ {
		x, labels := s.iter.Next()
		s.model.ZeroGrads()
		s.model.TrainBatch(x, labels)
		s.opt.Step(s.model)
	}
	s.met.trainSec.Observe(time.Since(trainStart).Seconds())
	return tensor.DeltaOf32(s.model.Params32(), global)
}

func (s *clientSession) commitPending() {
	if s.pending != nil {
		s.pending.Commit()
		s.pending = nil
	}
}

func (s *clientSession) rollbackPending() {
	if s.pending != nil {
		s.pending.Rollback()
		s.pending = nil
	}
}

// dial connects over the client's link and fault events, if any. Each
// dial draws losses and jitter from a stream of its own (linkRNG).
func (s *clientSession) dial() (*Conn, error) {
	s.dials++
	return dial("tcp", s.cfg.Addr, s.cfg.DialTimeout, s.cfg.Fault, s.link, linkRNG(s.cfg.Seed, s.dials))
}

// runOnce dials, registers and participates until shutdown (done=true) or
// a connection/protocol error (done=false, err != nil). progressed
// reports whether the connection got far enough to receive a message.
// Both protocols share the loop — registration, welcome, keepalive echo,
// the farewell, the staged-encode commit — and differ in what a model
// broadcast sets off: onModel is syncRound or asyncStep.
func (s *clientSession) runOnce() (done, progressed bool, err error) {
	cfg := s.cfg
	conn, err := s.dial()
	if err != nil {
		return false, false, err
	}
	// The live counter advances by delta at every upload, not only at
	// connection close — a mid-session /metrics scrape must see traffic.
	var counted int64
	countSent := func() {
		total := conn.BytesSent()
		s.met.bytesSent.Add(total - counted)
		counted = total
	}
	defer func() {
		countSent()
		s.res.BytesSent += conn.BytesSent()
		conn.Close()
	}()

	if err := conn.Send(&Envelope{Type: MsgHello, ClientID: cfg.ID, NumSamples: cfg.Data.Len(), Session: cfg.Session}); err != nil {
		return false, false, err
	}
	onModel := s.syncRound
	if cfg.Async {
		onModel = s.asyncStep
	}
	var env Envelope // receive scratch, holds the current broadcast
	for {
		e := &env
		if err := conn.RecvInto(e); err != nil {
			// A staged error-feedback encode whose upload was never
			// acknowledged by further traffic returns its mass to the
			// residuals: the server evicted us (quarantine, deadline) or
			// the link died, so the update never joined the aggregate.
			s.rollbackPending()
			return false, progressed, fmt.Errorf("rpc: client %d recv: %w", cfg.ID, err)
		}
		// Any message after an upload proves the server kept us in the
		// session — the staged encode is spent for good.
		s.commitPending()
		progressed = true
		switch e.Type {
		case MsgShutdown:
			cfg.Logf("client %d: shutdown (%s)", cfg.ID, e.Info)
			return true, true, nil
		case MsgWelcome:
			if e.Round > 0 {
				// A round index on a sync session, a model version on an async one.
				cfg.Logf("client %d: joining in-progress session at %d", cfg.ID, e.Round)
			}
			if cfg.Async {
				err = conn.Send(&Envelope{Type: MsgAsyncPull, ClientID: cfg.ID})
			}
		case MsgPing:
			// Keepalive probe: echo it so the server's liveness watchdog
			// sees a response within the heartbeat interval rather than
			// waiting for the next phase deadline.
			err = conn.Send(&Envelope{Type: MsgPing, ClientID: cfg.ID, Round: e.Round})
		case MsgModel:
			// Guard the broadcast before trusting it: a corrupt stream
			// that still decodes must not panic SetParams32 or the
			// utility score's dot products (the decoder has held ĝ to
			// the params' length).
			if len(e.Params32) != s.model.NumParams() {
				return false, true, fmt.Errorf("rpc: client %d: broadcast has %d params, model has %d: %w",
					cfg.ID, len(e.Params32), s.model.NumParams(), errProtocol)
			}
			err = onModel(conn, e)
			countSent()
		default:
			err = fmt.Errorf("rpc: client %d unexpected message %v: %w", cfg.ID, e.Type, errProtocol)
		}
		if err != nil {
			return false, true, err
		}
	}
}

// upload sends one encoded delta, and with it any message that follows it
// (the async pull), in one flush. An error-feedback codec's encode stays
// staged until the next received message proves the upload landed; a send
// that never completed rolls it back at once, so the redialled session
// re-transmits it.
func (s *clientSession) upload(conn *Conn, enc compress.Codec, msgs ...Message) error {
	rb, staged := enc.(rollbackCodec)
	if err := conn.Send(msgs...); err != nil {
		if staged {
			rb.Rollback()
		}
		return err
	}
	if staged {
		s.pending = rb
	}
	s.res.Uploads++
	s.met.uploads.Inc()
	return nil
}

// syncRound is one lockstep round from the client's side: train from the
// broadcast, report the utility score, await the selection, upload if
// selected.
func (s *clientSession) syncRound(conn *Conn, e *Envelope) error {
	cfg := s.cfg
	delta := s.train(e.Params32)
	// Utility score against the server-provided ĝ, as it was sent (dense,
	// or its support), at the round's rates, computed once: the score
	// reports them and a paced socket runs at them.
	up, down := cfg.UpBps, cfg.DownBps
	if cfg.Bandwidth != nil {
		up, down = cfg.Bandwidth(e.Round)
	}
	if s.link != nil {
		s.link.setRates(up, down)
	}
	score := cfg.Utility.ScoreAt(up, down, delta, e.DeltaIndices, e.GlobalDelta)
	if tensor.IsZero(e.GlobalDelta) {
		score = 1 // warm-up: everyone reports full utility
	}
	if err := conn.Send(&Envelope{Type: MsgScore, ClientID: cfg.ID, Round: e.Round, Score: score}); err != nil {
		return err
	}
	// Await the selection decision, in an envelope of its own: e's Round is
	// still needed, and MsgSelect carries no slice payloads, so sharing the
	// connection's decode buffers with e is safe. The server writes the
	// welcome from its handshake goroutine after the registration is
	// visible to the round loop, so under load the first broadcast can
	// overtake it and the welcome arrives here instead.
	var sel Envelope
	err := conn.RecvInto(&sel)
	if err == nil && sel.Type == MsgWelcome {
		err = conn.RecvInto(&sel)
	}
	if err != nil {
		return fmt.Errorf("rpc: client %d recv select: %w", cfg.ID, err)
	}
	if sel.Type != MsgSelect {
		return fmt.Errorf("rpc: client %d expected select, got %v: %w", cfg.ID, sel.Type, errProtocol)
	}
	s.res.Rounds++
	if sel.Ratio <= 0 {
		s.met.withheld.Inc()
		return nil // withheld this round
	}
	// Honor the negotiated assignment: codec by name, ratio clamped against
	// hostile or corrupt frames (NaN maps to 1 — upload uncompressed rather
	// than explode), level count applied to the quantizer (which clamps it
	// to its bounds).
	enc, err := s.negotiatedCodec(sel.Codec)
	if err != nil {
		return fmt.Errorf("rpc: client %d: %v: %w", cfg.ID, err, errProtocol)
	}
	if d, ok := enc.(*compress.DAdaQuant); ok {
		d.SetRound(sel.Round)
		d.SetLevels(sel.Levels)
	}
	msg := compress.EncodeDelta(enc, delta, compress.ClampRatio(sel.Ratio, 1, 1e9))
	return s.upload(conn, enc, &Envelope{Type: MsgUpdate, ClientID: cfg.ID, Round: e.Round, Update: msg})
}

// asyncStep is one pull→train→push turn. The async protocol has no round
// barrier: the server answers each MsgAsyncPull with the current global
// (Round carries the model version) and folds each MsgAsyncPush into its
// FedBuff buffer, down-weighting it by how many versions the base model
// has aged while we trained. Link losses redial exactly like the
// synchronous path; the model resyncs on the next pull.
func (s *clientSession) asyncStep(conn *Conn, e *Envelope) error {
	msg := compress.EncodeDelta(s.codec, s.train(e.Params32), compress.ClampRatio(s.cfg.AsyncRatio, 1, 1e9))
	// Round pins the version this delta was trained from: the server
	// derives staleness from it when the push is folded. The next pull
	// leaves with the push, in one write.
	if err := s.upload(conn, s.codec, &Envelope{Type: MsgAsyncPush, ClientID: s.cfg.ID, Round: e.Round, Update: msg},
		&Envelope{Type: MsgAsyncPull, ClientID: s.cfg.ID}); err != nil {
		return err
	}
	s.res.Rounds++
	return nil
}
