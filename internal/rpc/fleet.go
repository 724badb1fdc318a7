package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adafl/internal/compress"
	"adafl/internal/fl"
	"adafl/internal/shard"
	"adafl/internal/stats"
)

// Fleet harness: drives tens of thousands of real socket clients through
// lockstep aggregation rounds against an in-process collection server, to
// measure the wire codec at fleet scale (cmd/flfleet socket). The
// protocol is the AdaFL message vocabulary stripped to its hot path:
//
//	client → Hello            (once, after connect)
//	server → Select(round)    (the go-ahead broadcast; one shared
//	                           prebuilt frame)
//	client → Update(round)    (deterministic synthetic sparse delta)
//	server → Shutdown         (after the last round)
//
// The server has no hand-off on its per-update path. One reader goroutine
// per connection reads the 4-byte length into a header array and the
// payload into a pooled buffer, decodes the update into a pooled Sparse
// and ingests it into the engines' shard tree itself, at one stripe per
// core (shard.Tree). The ingest that brings the round's expected count to
// zero wakes the round loop — one wake-up per round — and the loop
// finishes the tree's round; a record the tree quarantined ends the run.
// An idle connection holds its goroutine and the header array, no read
// buffer, and the decode path allocates nothing. A client builds each
// update frame in a pooled buffer and sends it with one Write. Both ends
// are the fleet's own, so its connections skip the preamble.

// FleetConfig configures one socket-fleet run.
type FleetConfig struct {
	// Network/Addr is the listen and dial target: "unix" + a socket path
	// scales past the ~28k ephemeral-port ceiling of tcp loopback.
	Network, Addr string
	// Wire accepts only "" or WireBinary and selects nothing (see
	// WireBinary); any other value is an error.
	Wire string
	// Clients is the fleet size; Rounds the number of lockstep rounds.
	Clients, Rounds int
	// ExternalClients makes RunFleet a pure server: it spawns no
	// in-process clients and instead waits for Clients connections from
	// RunFleetClients processes sharing the same Seed/Dim/Nnz. This
	// splits the fleet's descriptor load across processes — both socket
	// ends of an in-process fleet live in one file table, so a 10k-client
	// run needs ~20k fds in one process but only ~10k in each half.
	ExternalClients bool
	// Dim/Nnz shape the synthetic sparse updates.
	Dim, Nnz int
	// Seed drives deterministic update generation (FleetUpdate).
	Seed uint64
	// Mask optionally gates participation per round: Mask[r][id] false
	// means client id sits round r out — it sends no update and the
	// server does not wait for one. Produced by a scenario schedule
	// (internal/scenario Fleet.Schedule); nil means full participation.
	// RunFleet requires len(Mask) >= Rounds with every row covering all
	// client ids; the client half of a split fleet must carry the same
	// mask so both processes agree on who sits out.
	Mask [][]bool
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

// FleetResult is one run's measurements.
type FleetResult struct {
	Network string `json:"network"`
	Clients int    `json:"clients"`
	Rounds  int    `json:"rounds"`
	Dim     int    `json:"dim"`
	Nnz     int    `json:"nnz"`
	// Workers counts the tree's stripes the connection readers ingest
	// into (GOMAXPROCS), not goroutines.
	Workers int `json:"workers"`

	Updates       int64   `json:"updates"`
	WallSeconds   float64 `json:"wall_seconds"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// BytesUp/BytesDown are total wire volume. BytesPerUpdate is the
	// exact uplink cost of one update frame (hello traffic excluded):
	// 23 + 12·nnz to the byte.
	BytesUp        int64   `json:"bytes_up"`
	BytesDown      int64   `json:"bytes_down"`
	BytesPerUpdate float64 `json:"bytes_per_update"`
	// AllocsPerUpdate is the whole-process malloc count per update over
	// rounds 2..N (round 1 warms scratch buffers and connection state).
	AllocsPerUpdate float64 `json:"allocs_per_update"`
	// Checksum sums the final global vector: equal, bit for bit, to the
	// in-process flfleet's (same update generator, same fold).
	Checksum float64 `json:"global_checksum"`
}

// fleetValueScale maps a uniform draw in [-0.5, 0.5) to standard
// deviation 0.01: a unit-width uniform has variance 1/12.
var fleetValueScale = 0.01 * math.Sqrt(12)

// FleetUpdate fills u with the deterministic synthetic update of (seed,
// round, id) — the same scheme cmd/flfleet's in-process producer uses, so
// socket-driven and in-process runs yield comparable checksums. u's
// slices are reused when their capacity suffices. Each coordinate costs
// one splitmix64 word: the high half picks the index by multiply-shift
// (unsorted, with repeats), the low half gives a uniform value with mean
// 0 and standard deviation 0.01. Nothing reads the distribution, only
// the frame layout and the norm scale, so it need not be Gaussian. dim
// must not exceed math.MaxInt32 (the wire's index range).
func FleetUpdate(u *compress.Sparse, seed uint64, round, id, dim, nnz int) {
	rng := stats.NewRNG(seed ^ uint64(round)*0x9e3779b97f4a7c15 ^ uint64(id)*0xbf58476d1ce4e5b9)
	u.Dim = dim
	if cap(u.Indices) < nnz {
		u.Indices = make([]int32, nnz)
	}
	if cap(u.Values) < nnz {
		u.Values = make([]float64, nnz)
	}
	u.Indices = u.Indices[:nnz]
	u.Values = u.Values[:nnz]
	d := uint64(dim)
	for i := 0; i < nnz; i++ {
		x := rng.Uint64()
		u.Indices[i] = int32((x >> 32) * d >> 32)
		u.Values[i] = (float64(uint32(x))/(1<<32) - 0.5) * fleetValueScale
	}
}

// CheckFleetShape rejects a fleet shape the generator or the wire cannot
// carry, before anything is allocated at Dim: indices are int32 on the
// wire.
func CheckFleetShape(dim, nnz int) error {
	if dim < 1 || nnz < 1 || nnz > dim {
		return fmt.Errorf("rpc: fleet needs dim >= 1 and 1 <= nnz <= dim")
	}
	if dim > math.MaxInt32 {
		return fmt.Errorf("rpc: fleet dim %d overflows the wire's int32 index range", dim)
	}
	return nil
}

type fleetRun struct {
	cfg FleetConfig

	tree   *shard.Tree
	weight float64 // each update's fold weight, 1/Clients
	// hello marks the client ids registered so far: each in [0, Clients),
	// once.
	hello []atomic.Bool

	// round is the round in progress and pending the number of its
	// updates not yet ingested; the round loop stores both before the
	// broadcast, and the ingest that brings pending to 0 sends the round's
	// one roundDone token.
	round     atomic.Int64
	pending   atomic.Int64
	roundDone chan struct{}
	readyCh   chan struct{} // one token per processed hello
	// shutdown is set once the closing broadcast begins: from then on a
	// reader's EOF is a client leaving, not a client lost.
	shutdown atomic.Bool

	pool sync.Pool // *[]byte payload buffers
	// upds holds the Sparses updates decode into, apart from pool: a
	// reader holds a buffer across a blocking read but a Sparse only for
	// one decode and ingest, so a core needs about one.
	upds sync.Pool // *compress.Sparse

	bytesUp   atomic.Int64
	bytesDown atomic.Int64

	aborted chan struct{}
	abortMu sync.Mutex
	err     error

	ln net.Listener
	// dialNet/dialAddr are the listener's resolved endpoint ("tcp" with
	// Addr ":0" resolves to an ephemeral port clients must dial).
	dialNet, dialAddr string

	// trackClientConns registers client-side conns in f.conns so an abort
	// can unblock peers stuck in RecvInto. Only RunFleetClients sets it —
	// in RunFleet, f.conns must hold server-side conns exclusively (the
	// broadcast paths iterate it).
	trackClientConns bool

	// connMu guards conns against the accept loop: broadcast runs after
	// the registration barrier (all appends done), but the abort path can
	// tear down mid-accept. closed makes teardown airtight: a conn accepted
	// after the sweep is closed on arrival.
	connMu sync.Mutex
	closed bool
	conns  []net.Conn // raw server-side conns (the broadcast path)
}

func (f *fleetRun) addConn(raw net.Conn) {
	f.connMu.Lock()
	if f.closed {
		f.connMu.Unlock()
		raw.Close()
		return
	}
	f.conns = append(f.conns, raw)
	f.connMu.Unlock()
}

// abort records the first fatal error and unblocks every waiter.
func (f *fleetRun) abort(err error) {
	f.abortMu.Lock()
	defer f.abortMu.Unlock()
	if f.err == nil {
		f.err = err
		close(f.aborted)
	}
}

func (f *fleetRun) failed() error {
	f.abortMu.Lock()
	defer f.abortMu.Unlock()
	return f.err
}

// RunFleet listens on cfg.Network/Addr, connects cfg.Clients in-process
// socket clients, drives cfg.Rounds lockstep rounds and reports the
// measurements. The listener and every socket are closed on return.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if err := checkWire(cfg.Wire); err != nil {
		return nil, err
	}
	if cfg.Clients < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("rpc: fleet needs clients, rounds >= 1")
	}
	if err := CheckFleetShape(cfg.Dim, cfg.Nnz); err != nil {
		return nil, err
	}
	if cfg.Mask != nil {
		if len(cfg.Mask) < cfg.Rounds {
			return nil, fmt.Errorf("rpc: fleet mask covers %d rounds, need %d", len(cfg.Mask), cfg.Rounds)
		}
		for r := 0; r < cfg.Rounds; r++ {
			if len(cfg.Mask[r]) < cfg.Clients {
				return nil, fmt.Errorf("rpc: fleet mask round %d covers %d clients, need %d", r, len(cfg.Mask[r]), cfg.Clients)
			}
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}

	ln, err := net.Listen(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	f := &fleetRun{
		cfg:       cfg,
		ln:        ln,
		dialNet:   ln.Addr().Network(),
		dialAddr:  ln.Addr().String(),
		tree:      shard.NewTree(shard.Config{Shards: runtime.GOMAXPROCS(0), Dim: cfg.Dim}),
		weight:    1 / float64(cfg.Clients),
		hello:     make([]atomic.Bool, cfg.Clients),
		roundDone: make(chan struct{}, 1),
		readyCh:   make(chan struct{}, cfg.Clients),
		aborted:   make(chan struct{}),
	}
	f.pool.New = func() any {
		b := make([]byte, 0, envHeaderBytes+compress.SparseBinarySize(cfg.Nnz)+64)
		return &b
	}
	f.upds.New = func() any { return new(compress.Sparse) }

	// Accept loop: exactly cfg.Clients connections, one reader each.
	var readerWG sync.WaitGroup
	go func() {
		for i := 0; i < cfg.Clients; i++ {
			raw, err := ln.Accept()
			if err != nil {
				f.abort(fmt.Errorf("rpc: fleet accept %d: %w", i, err))
				return
			}
			readerWG.Add(1)
			f.addConn(raw)
			go f.reader(raw, &readerWG)
		}
	}()

	// Client fleet: one goroutine per client, dial concurrency bounded so
	// the listener backlog is not overrun. With ExternalClients the
	// connections arrive from RunFleetClients processes instead.
	var clientWG sync.WaitGroup
	if !cfg.ExternalClients {
		dialSem := make(chan struct{}, 128)
		for id := 0; id < cfg.Clients; id++ {
			clientWG.Add(1)
			go func(id int) {
				defer clientWG.Done()
				if err := f.client(id, dialSem); err != nil {
					f.abort(fmt.Errorf("rpc: fleet client %d: %w", id, err))
				}
			}(id)
		}
	}

	// Registration barrier: every hello processed.
	for i := 0; i < cfg.Clients; i++ {
		select {
		case <-f.readyCh:
		case <-f.aborted:
			return nil, f.teardown(&clientWG, &readerWG)
		}
	}
	helloBytes := f.bytesUp.Load()
	cfg.Logf("fleet: %d clients connected (%s), starting %d rounds",
		cfg.Clients, cfg.Network, cfg.Rounds)

	global := make([]float64, cfg.Dim)
	var memMark runtime.MemStats
	var allocMark uint64
	var totalUpdates, firstRound int64
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		// Under a mask the server awaits exactly the round's participants;
		// masked-out clients stay connected but send nothing.
		expect := cfg.Clients
		if cfg.Mask != nil {
			expect = 0
			for id := 0; id < cfg.Clients; id++ {
				if cfg.Mask[r][id] {
					expect++
				}
			}
		}
		totalUpdates += int64(expect)
		if r == 0 {
			firstRound = int64(expect)
		}
		// The count is in place before any client can answer the select.
		f.round.Store(int64(r))
		f.pending.Store(int64(expect))
		if err := f.broadcastSelect(r); err != nil {
			f.abort(err)
			return nil, f.teardown(&clientWG, &readerWG)
		}
		if expect > 0 {
			select {
			case <-f.roundDone:
			case <-f.aborted:
				return nil, f.teardown(&clientWG, &readerWG)
			}
		}
		// Barrier reached: every update of the round is ingested.
		part, quars := f.tree.Finish()
		if len(quars) > 0 {
			f.abort(fmt.Errorf("rpc: fleet client %d sent a bad update: %s", quars[0].ClientID, quars[0].Reason))
			return nil, f.teardown(&clientWG, &readerWG)
		}
		if err := (fl.FedAvg{}).ApplyPartial(global, part); err != nil {
			f.abort(fmt.Errorf("rpc: fleet round %d: %w", r+1, err))
			return nil, f.teardown(&clientWG, &readerWG)
		}
		if r == 0 {
			// Round 1 warms scratch buffers, pools and connection state;
			// steady-state allocation accounting starts here.
			runtime.ReadMemStats(&memMark)
			allocMark = memMark.Mallocs
		}
		cfg.Logf("fleet: round %d/%d done", r+1, cfg.Rounds)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&memMark)

	f.broadcastShutdown()
	clientWG.Wait()
	readerWG.Wait()
	f.closeConns()
	if err := f.failed(); err != nil {
		return nil, err
	}

	res := &FleetResult{
		Network: cfg.Network,
		Clients: cfg.Clients, Rounds: cfg.Rounds, Dim: cfg.Dim, Nnz: cfg.Nnz,
		Workers:     runtime.GOMAXPROCS(0),
		Updates:     totalUpdates,
		WallSeconds: wall.Seconds(),
		BytesUp:     f.bytesUp.Load(),
		BytesDown:   f.bytesDown.Load(),
	}
	res.UpdatesPerSec = float64(res.Updates) / res.WallSeconds
	res.BytesPerUpdate = float64(res.BytesUp-helloBytes) / float64(res.Updates)
	if steady := totalUpdates - firstRound; cfg.Rounds > 1 && steady > 0 {
		res.AllocsPerUpdate = float64(memMark.Mallocs-allocMark) / float64(steady)
	} else {
		res.AllocsPerUpdate = math.NaN()
	}
	for _, v := range global {
		res.Checksum += v
	}
	return res, nil
}

// teardown closes everything after an abort and reports the first error.
func (f *fleetRun) teardown(clientWG, readerWG *sync.WaitGroup) error {
	f.ln.Close() // stops the accept loop before the conn lists are read
	f.closeConns()
	clientWG.Wait()
	readerWG.Wait()
	return f.failed()
}

// closeConns closes every tracked connection, and any added later.
func (f *fleetRun) closeConns() {
	f.connMu.Lock()
	f.closed = true
	conns := f.conns
	f.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// reader serves one connection for the whole session; any error it meets
// aborts the run.
func (f *fleetRun) reader(raw net.Conn, wg *sync.WaitGroup) {
	defer wg.Done()
	if err := f.serve(raw); err != nil {
		f.abort(err)
		raw.Close()
	}
}

// serve reads frames off one connection and ingests each update itself
// before reading the next frame: the length goes into hdr, the payload
// into a pooled buffer that returns to the pool after the ingest.
// Between frames the connection holds hdr and nothing else. It returns
// nil when the client leaves after the closing broadcast.
func (f *fleetRun) serve(raw net.Conn) error {
	frameCap := envHeaderBytes + compress.SparseBinarySize(f.cfg.Nnz) + 64
	client, last := -1, -1 // the hello's client id; the last round it sent
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(raw, hdr[:]); err != nil {
			return f.lost(client, err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < envHeaderBytes || n > frameCap {
			return fmt.Errorf("rpc: fleet frame of %d bytes (cap %d)", n, frameCap)
		}
		buf := f.pool.Get().(*[]byte)
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		p := (*buf)[:n]
		if _, err := io.ReadFull(raw, p); err != nil {
			f.pool.Put(buf)
			return f.lost(client, err)
		}
		f.bytesUp.Add(int64(4 + n))
		var err error
		switch MsgType(p[0]) {
		case MsgHello:
			if client >= 0 {
				err = fmt.Errorf("rpc: fleet client %d sent a second hello", client)
				break
			}
			client = int(int32(binary.LittleEndian.Uint32(p[2:])))
			switch {
			case client < 0 || client >= len(f.hello):
				err = fmt.Errorf("rpc: fleet client %d is outside the fleet's ids [0, %d)", client, len(f.hello))
			case f.hello[client].Swap(true):
				err = fmt.Errorf("rpc: fleet client %d registered twice", client)
			default:
				f.readyCh <- struct{}{}
			}
		case MsgUpdate:
			// At most one update per connection per round, for the round in
			// progress and from a participant: anything else would throw the
			// barrier's count off.
			round := int(int32(binary.LittleEndian.Uint32(p[6:])))
			if client < 0 || round != int(f.round.Load()) || round <= last || !maskAllows(f.cfg.Mask, round, client) {
				err = fmt.Errorf("rpc: fleet client %d sent an update for round %d out of turn", client, round)
				break
			}
			last = round
			err = f.ingest(p[envHeaderBytes:], round, client)
		default:
			err = fmt.Errorf("rpc: fleet got %v from a client", MsgType(p[0]))
		}
		f.pool.Put(buf)
		if err != nil {
			return err
		}
	}
}

// ingest decodes one update's sparse section into a pooled Sparse and
// ingests it into the tree, which keeps nothing of it, then counts the
// update against the round's barrier: the ingest that brings the count
// to zero sends the round's one token. A reject the tree's check finds
// surfaces at the barrier (Tree.Finish).
func (f *fleetRun) ingest(section []byte, round, client int) error {
	u := f.upds.Get().(*compress.Sparse)
	defer f.upds.Put(u)
	if err := u.DecodeBinaryInto(section); err != nil { // copies what it keeps
		return fmt.Errorf("rpc: fleet client %d sent a bad update: %w", client, err)
	}
	f.tree.Ingest(round, shard.Update{Client: client, Weight: f.weight, Delta: u})
	if f.pending.Add(-1) == 0 {
		f.roundDone <- struct{}{}
	}
	return nil
}

// lost judges a failed read. Once the closing broadcast has begun it is a
// client leaving; before, the session has lost a member it waits for.
func (f *fleetRun) lost(client int, err error) error {
	switch {
	case f.shutdown.Load():
		return nil
	case client < 0:
		return fmt.Errorf("rpc: fleet connection lost before its hello: %w", err)
	}
	return fmt.Errorf("rpc: fleet client %d disconnected mid-session: %w", client, err)
}

// broadcastSelect sends the round's go-ahead to every client: one shared
// frame, prebuilt and written to every socket.
func (f *fleetRun) broadcastSelect(round int) error {
	frame, _ := appendFrameHead(nil, &Envelope{Type: MsgSelect, Round: round, Ratio: 1}, 0)
	for _, raw := range f.conns {
		if _, err := raw.Write(frame); err != nil {
			return fmt.Errorf("rpc: fleet select broadcast: %w", err)
		}
		f.bytesDown.Add(int64(len(frame)))
	}
	return nil
}

// broadcastShutdown ends the session; send errors are ignored (a client
// that already vanished is being told to vanish).
func (f *fleetRun) broadcastShutdown() {
	f.shutdown.Store(true)
	frame, _ := appendFrameHead(nil, &Envelope{Type: MsgShutdown, Info: "fleet done"}, 0)
	for _, raw := range f.conns {
		if _, err := raw.Write(frame); err == nil {
			f.bytesDown.Add(int64(len(frame)))
		}
	}
}

// client dials and runs one fleet member: no preamble, and only the hello
// passes the Conn's small send buffer (newBinaryConn). An error after an
// abort is not the run's: the abort kept the first.
func (f *fleetRun) client(id int, dialSem chan struct{}) error {
	dialSem <- struct{}{}
	raw, err := f.dialRetry()
	<-dialSem
	if err != nil {
		return err
	}
	if f.trackClientConns {
		f.addConn(raw)
	}
	conn := newBinaryConn(raw, 1024)
	defer conn.Close()
	_, err = FleetMember(conn, id, f.cfg.Seed, f.cfg.Dim, f.cfg.Nnz, f.cfg.Mask)
	return err
}

// FleetMember runs one synthetic lockstep member over conn (handshake
// done, no other sender): a hello, then on each select the FleetUpdate of
// (seed, round, id) in one Write past the send buffer (sendFleetUpdate),
// at most as dense as the select's ratio allows, and nothing in a round
// mask excludes (nil: none); until a shutdown (nil) or an error. sent
// counts its updates.
func FleetMember(conn *Conn, id int, seed uint64, dim, nnz int, mask [][]bool) (sent int, err error) {
	if err := conn.Send(&Envelope{Type: MsgHello, ClientID: id, NumSamples: 1}); err != nil {
		return 0, err
	}
	upd := &compress.Sparse{}
	var env Envelope
	for {
		if err := conn.RecvInto(&env); err != nil {
			return sent, err
		}
		switch env.Type {
		case MsgSelect:
			if !maskAllows(mask, env.Round, id) {
				continue // sitting this round out per the scenario mask
			}
			FleetUpdate(upd, seed, env.Round, id, dim, min(nnz, compress.KForRatio(dim, env.Ratio)))
			if err := sendFleetUpdate(conn.raw, id, env.Round, upd); err != nil {
				return sent, fmt.Errorf("send %v: %w", MsgUpdate, err)
			}
			sent++
		case MsgShutdown:
			return sent, nil
		default:
			return sent, fmt.Errorf("unexpected %v", env.Type)
		}
	}
}

// fleetFrames pools the clients' update frame buffers. A buffer grows to
// the first frame it carries, so a fleet holds one per client mid-send
// rather than one per client.
var fleetFrames = sync.Pool{New: func() interface{} { return new([]byte) }}

// sendFleetUpdate writes u as one update frame of client id for round —
// the bytes Conn.Send would write — with a single Write on w.
func sendFleetUpdate(w io.Writer, id, round int, u *compress.Sparse) error {
	bp := fleetFrames.Get().(*[]byte)
	b, _ := appendFrameHead((*bp)[:0], &Envelope{Type: MsgUpdate, ClientID: id, Round: round, Update: u}, 0)
	b = u.AppendBinary(b)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4)) // the length prefix, known now
	_, err := w.Write(b)
	*bp = b
	fleetFrames.Put(bp)
	return err
}

// RunFleetClients runs the client half of a split fleet: it dials
// cfg.Network/Addr and drives clients [lo, hi) against a RunFleet server
// (ExternalClients: true) in another process, returning once every
// client has been shut down. cfg.Seed, Dim and Nnz must match the
// server's so the updates — and the server's frame caps — agree.
func RunFleetClients(cfg FleetConfig, lo, hi int) error {
	if err := checkWire(cfg.Wire); err != nil {
		return err
	}
	if lo < 0 || hi <= lo {
		return fmt.Errorf("rpc: fleet client range [%d, %d) is empty", lo, hi)
	}
	if err := CheckFleetShape(cfg.Dim, cfg.Nnz); err != nil {
		return err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	f := &fleetRun{
		cfg:              cfg,
		dialNet:          cfg.Network,
		dialAddr:         cfg.Addr,
		aborted:          make(chan struct{}),
		trackClientConns: true,
	}
	// One client's failure must unblock the rest: they sit in RecvInto on
	// healthy sockets and would otherwise wait on a server that is itself
	// stalled waiting for the dead client's update.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
		case <-f.aborted:
			f.closeConns()
		}
	}()
	cfg.Logf("fleet: dialing clients [%d, %d) against %s %s",
		lo, hi, cfg.Network, cfg.Addr)
	var wg sync.WaitGroup
	dialSem := make(chan struct{}, 128)
	for id := lo; id < hi; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := f.client(id, dialSem); err != nil {
				f.abort(fmt.Errorf("rpc: fleet client %d: %w", id, err))
			}
		}(id)
	}
	wg.Wait()
	return f.failed()
}

// maskAllows reports whether client id participates in round r under the
// optional availability mask; a nil mask or an out-of-range index means
// full participation (split-fleet client processes may carry no mask
// rows beyond the rounds the server validated).
func maskAllows(mask [][]bool, r, id int) bool {
	return mask == nil || r >= len(mask) || id >= len(mask[r]) || mask[r][id]
}

// dialRetry absorbs transient dial failures (listener backlog overruns
// while thousands of clients connect at once).
func (f *fleetRun) dialRetry() (net.Conn, error) {
	var err error
	for attempt := 0; attempt < 300; attempt++ {
		var c net.Conn
		c, err = net.DialTimeout(f.dialNet, f.dialAddr, 10*time.Second)
		if err == nil {
			return c, nil
		}
		select {
		case <-f.aborted:
			return nil, err
		case <-time.After(time.Duration(1+attempt%20) * time.Millisecond):
		}
	}
	return nil, err
}
