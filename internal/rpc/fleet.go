package rpc

import (
	"bufio"
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
	"adafl/internal/shard"
	"adafl/internal/stats"
	"adafl/internal/tensor"
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
// The server side is the shape the issue's 100k-connection goal needs:
// one reader goroutine per connection parses frames into pooled payload
// buffers and dispatches them to a bounded worker pool; each worker
// decodes into its own scratch Sparse and folds into its own Partial, and
// the round loop merges worker partials in ascending worker order.
// Steady-state per-connection memory is the bufio reader plus a share of
// the payload pool — a few KB — and the decode path allocates nothing.
// Both ends are the fleet's own, so its connections skip the preamble.

// fleetQueue is the depth of the reader→worker dispatch channel; each
// queued job pins one pooled frame payload until a worker decodes it.
const fleetQueue = 256

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
	Workers int    `json:"workers"`

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
	// Checksum sums the final global vector: comparable with the
	// in-process flfleet (same update generator).
	Checksum float64 `json:"global_checksum"`
}

// FleetUpdate fills u with the deterministic synthetic update of (seed,
// round, id) — the same scheme cmd/flfleet's in-process producer uses, so
// socket-driven and in-process runs yield comparable checksums. u's
// slices are reused when their capacity suffices.
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
	for i := 0; i < nnz; i++ {
		u.Indices[i] = int32(rng.Intn(dim))
		u.Values[i] = rng.NormScaled(0, 0.01)
	}
}

// fleetJob carries one update payload to a decode worker: raw frame bytes
// (buf returns to the pool after decoding).
type fleetJob struct {
	payload []byte
	buf     *[]byte
}

type fleetRun struct {
	cfg FleetConfig

	work      chan fleetJob
	roundDone chan struct{} // one token per folded update
	readyCh   chan struct{} // one token per processed hello

	pool sync.Pool // *[]byte payload buffers

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
	if cfg.Clients < 1 || cfg.Rounds < 1 || cfg.Dim < 1 || cfg.Nnz < 1 || cfg.Nnz > cfg.Dim {
		return nil, fmt.Errorf("rpc: fleet needs clients, rounds, dim >= 1 and 1 <= nnz <= dim")
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
		work:      make(chan fleetJob, fleetQueue),
		roundDone: make(chan struct{}, cfg.Clients),
		readyCh:   make(chan struct{}, cfg.Clients),
		aborted:   make(chan struct{}),
	}
	f.pool.New = func() interface{} {
		b := make([]byte, 0, envHeaderBytes+compress.SparseBinarySize(cfg.Nnz)+64)
		return &b
	}

	// Decode/fold workers, one per GOMAXPROCS, each with private scratch and
	// partial.
	workers := runtime.GOMAXPROCS(0)
	weight := 1 / float64(cfg.Clients)
	parts := make([]*shard.Partial, workers)
	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		parts[w] = shard.NewPartial(cfg.Dim)
		workerWG.Add(1)
		go f.worker(parts[w], weight, &workerWG)
	}

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
			go f.binaryReader(raw, &readerWG)
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
			return nil, f.teardown(&clientWG, &readerWG, &workerWG)
		}
	}
	helloBytes := f.bytesUp.Load()
	cfg.Logf("fleet: %d clients connected (%s), starting %d rounds",
		cfg.Clients, cfg.Network, cfg.Rounds)

	global := make([]float64, cfg.Dim)
	roundPart := shard.NewPartial(cfg.Dim)
	var memMark runtime.MemStats
	var allocMark uint64
	var totalUpdates, firstRound int64
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		if err := f.broadcastSelect(r); err != nil {
			f.abort(err)
			return nil, f.teardown(&clientWG, &readerWG, &workerWG)
		}
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
		for i := 0; i < expect; i++ {
			select {
			case <-f.roundDone:
			case <-f.aborted:
				return nil, f.teardown(&clientWG, &readerWG, &workerWG)
			}
		}
		// Barrier reached: every worker has folded its last update of the
		// round, so the partials are quiescent. Ascending worker order
		// fixes the merge's floating-point summation order.
		for _, p := range parts {
			roundPart.Merge(p)
			p.Reset()
		}
		if roundPart.WeightSum != 0 {
			tensor.Axpy(1/roundPart.WeightSum, roundPart.Sum, global)
		}
		roundPart.Reset()
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
	close(f.work)
	workerWG.Wait()
	for _, c := range f.conns {
		c.Close()
	}
	if err := f.failed(); err != nil {
		return nil, err
	}

	res := &FleetResult{
		Network: cfg.Network,
		Clients: cfg.Clients, Rounds: cfg.Rounds, Dim: cfg.Dim, Nnz: cfg.Nnz,
		Workers:     workers,
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
func (f *fleetRun) teardown(clientWG, readerWG, workerWG *sync.WaitGroup) error {
	f.ln.Close() // stops the accept loop before the conn lists are read
	f.connMu.Lock()
	f.closed = true
	conns := f.conns
	f.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	clientWG.Wait()
	readerWG.Wait()
	close(f.work)
	workerWG.Wait()
	return f.failed()
}

// binaryReader parses frames off one connection and dispatches update
// payloads to the worker pool. Per-connection steady-state memory is the
// bufio reader plus whatever pooled payload buffer is in flight.
func (f *fleetRun) binaryReader(raw net.Conn, wg *sync.WaitGroup) {
	defer wg.Done()
	br := bufio.NewReaderSize(raw, 4096)
	frameCap := envHeaderBytes + compress.SparseBinarySize(f.cfg.Nnz) + 64
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF after shutdown is the clean exit; anything mid-run
			// surfaces as a stalled round via abort from the client side.
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < envHeaderBytes || n > frameCap {
			f.abort(fmt.Errorf("rpc: fleet frame of %d bytes (cap %d)", n, frameCap))
			raw.Close()
			return
		}
		buf := f.pool.Get().(*[]byte)
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		p := (*buf)[:n]
		if _, err := io.ReadFull(br, p); err != nil {
			f.abort(fmt.Errorf("rpc: fleet read: %w", err))
			raw.Close()
			return
		}
		f.bytesUp.Add(int64(4 + n))
		switch MsgType(p[0]) {
		case MsgHello:
			f.pool.Put(buf)
			f.readyCh <- struct{}{}
		case MsgUpdate:
			f.work <- fleetJob{payload: p, buf: buf}
		default:
			f.abort(fmt.Errorf("rpc: fleet got %v from a client", MsgType(p[0])))
			raw.Close()
			return
		}
	}
}

// worker decodes and folds updates into its private partial. The scratch
// Sparse is reused across every update this worker sees: the fold
// (Partial.Fold → Sparse.AddTo) reads the delta synchronously and retains
// nothing.
func (f *fleetRun) worker(part *shard.Partial, weight float64, wg *sync.WaitGroup) {
	defer wg.Done()
	scratch := &compress.Sparse{}
	for job := range f.work {
		id := int(int32(binary.LittleEndian.Uint32(job.payload[2:])))
		err := scratch.DecodeBinaryInto(job.payload[envHeaderBytes:]) // copies what it keeps
		f.pool.Put(job.buf)
		if err != nil {
			f.abort(fmt.Errorf("rpc: fleet decode: %w", err))
			continue
		}
		part.Fold(shard.Update{Client: id, Weight: weight, Delta: scratch}, false)
		f.roundDone <- struct{}{}
	}
}

// broadcastSelect sends the round's go-ahead to every client: one shared
// frame, prebuilt and written to every socket.
func (f *fleetRun) broadcastSelect(round int) error {
	frame := appendFrameHead(nil, &Envelope{Type: MsgSelect, Round: round, Ratio: 1}, envHeaderBytes+8)
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
	e := &Envelope{Type: MsgShutdown, Info: "fleet done"}
	frame := appendFrameHead(nil, e, envHeaderBytes+4+len(e.Info))
	for _, raw := range f.conns {
		if _, err := raw.Write(frame); err == nil {
			f.bytesDown.Add(int64(len(frame)))
		}
	}
}

// client runs one fleet member: dial, hello, then lockstep rounds until
// shutdown. Fleet clients skip the preamble and use a small send buffer —
// 10k clients at the default 32KB would burn 320MB in bufio alone.
func (f *fleetRun) client(id int, dialSem chan struct{}) error {
	dialSem <- struct{}{}
	raw, err := f.dialRetry()
	<-dialSem
	if err != nil {
		return err
	}
	conn := newBinaryConn(raw, nil, 1024)
	defer conn.Close()
	if f.trackClientConns {
		f.addConn(raw)
	}
	if err := conn.Send(&Envelope{Type: MsgHello, ClientID: id, NumSamples: 1}); err != nil {
		return err
	}
	upd := &compress.Sparse{}
	var env Envelope
	for {
		if err := conn.RecvInto(&env); err != nil {
			select {
			case <-f.aborted: // torn down under us: not this client's fault
				return nil
			default:
			}
			return err
		}
		switch env.Type {
		case MsgSelect:
			if !maskAllows(f.cfg.Mask, env.Round, id) {
				continue // sitting this round out per the scenario mask
			}
			FleetUpdate(upd, f.cfg.Seed, env.Round, id, f.cfg.Dim, f.cfg.Nnz)
			if err := conn.Send(&Envelope{Type: MsgUpdate, ClientID: id, Round: env.Round, Update: upd}); err != nil {
				return err
			}
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("unexpected %v", env.Type)
		}
	}
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
	if cfg.Dim < 1 || cfg.Nnz < 1 || cfg.Nnz > cfg.Dim {
		return fmt.Errorf("rpc: fleet needs dim >= 1 and 1 <= nnz <= dim")
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
			return
		case <-f.aborted:
		}
		f.connMu.Lock()
		f.closed = true
		conns := f.conns
		f.connMu.Unlock()
		for _, c := range conns {
			c.Close()
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
