// Command flfleet is the fleet-scale load harness. It simulates thousands
// of clients producing deterministic synthetic sparse updates every round
// (rpc.FleetUpdate; no training) and measures aggregation throughput and
// memory. Each mode is a subcommand with a flag set of its own:
//
//	flfleet         in-process: every update folds straight into its
//	                shard partial of the streaming aggregation tree
//	                (internal/shard) — no sockets; O(shards × dim)
//	                aggregation state, constant in the fleet size
//	flfleet socket  the same fleet over real sockets (rpc.RunFleet):
//	                every client dials, registers and streams its updates
//	                as wire frames; the server side runs the
//	                per-connection reader → pooled payload → decode/fold
//	                worker pipeline
//	flfleet edge    the fleet as clients of a two-tier federation
//	                (flserver root + flserver edge)
//	flfleet async   the fleet as clients of an flserver async session
//
// Socket mode: unix sockets scale past the ~28k ephemeral-port ceiling of
// tcp loopback, and the open-file soft limit is raised to the hard limit
// at startup (a 10k-client run needs two fds per client). Where one
// process's file table cannot hold both socket ends, -role splits the
// run: a "server" process waits for "clients" processes (each driving
// [offset, offset+clients)) to dial in, halving the per-process
// descriptor load.
//
// Edge mode: each client dials the root's bootstrap listener, follows the
// MsgReroute welcome to its assigned regional edge, and answers that
// edge's round go-aheads until the session shuts down. If the edge dies
// mid-session the client falls back to the bootstrap path with
// full-jitter backoff and is rerouted to a surviving sibling.
//
// Async mode: each client registers, then cycles pull→push with synthetic
// deltas sized to the pulled model until the session's version budget
// shuts it down.
//
// Peak RSS (VmHWM) is monotonic per process, so run one configuration
// per invocation when comparing memory (-json emits one JSON object per
// configuration; bench/'s fleet_ingest.peak_rss_mb is the tracked number).
//
// Examples:
//
//	flfleet -clients 10000 -shards 8 -rounds 5 -dim 20000 -nnz 1000 -json
//	flfleet socket -addr unix:/tmp/flfleet.sock -clients 10000 -rounds 5 \
//	        -dim 20000 -nnz 1000 -json
//	flfleet edge -addr localhost:7070 -clients 64 -dim 20000 -nnz 1000
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adafl/cmd/internal/cli"
	"adafl/internal/compress"
	"adafl/internal/edge"
	"adafl/internal/fl"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
	"adafl/internal/shard"
)

var commands = []cli.Command{
	{Summary: "in-process: fold the synthetic fleet through the streaming aggregation tree, no sockets", Flags: newInProcess},
	{Name: "socket", Summary: "drive the synthetic fleet over real sockets against an in-process collection server", Flags: newSocket},
	{Name: "edge", Summary: "drive the synthetic fleet as clients of a two-tier federation (flserver root + edge)", Flags: newEdge},
	{Name: "async", Summary: "drive the synthetic fleet as pull→push clients of an flserver async session", Flags: newAsync},
}

func main() { cli.Main("flfleet", commands) }

// Help shared by the subcommands that take the flag.
const (
	clientsHelp  = "simulated fleet size"
	nnzHelp      = "non-zeros per client update"
	seedHelp     = "update-generation seed"
	offsetHelp   = "first client id this process drives (its range is [offset, offset+clients))"
	jsonHelp     = "emit the result as one JSON object on stdout"
	scenarioHelp = "declarative scenario file: its precomputed availability schedule masks which clients produce an update each round (energy depletion, churn, outages)"
)

// result is the JSON record one in-process invocation emits.
type result struct {
	Mode    string `json:"mode"`
	Clients int    `json:"clients"`
	Shards  int    `json:"shards"`
	Rounds  int    `json:"rounds"`
	Dim     int    `json:"dim"`
	Nnz     int    `json:"nnz"`

	WallSeconds    float64 `json:"wall_seconds"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	UpdatesPerSec  float64 `json:"updates_per_sec"`
	MBFoldedPerSec float64 `json:"mb_folded_per_sec"`
	PeakHeapInuse  uint64  `json:"peak_heap_inuse_bytes"`
	VmHWMKB        int     `json:"vm_hwm_kb"`
	GlobalChecksum float64 `json:"global_checksum"`
}

// inProcessCmd is the default subcommand.
type inProcessCmd struct {
	tree                 shard.Config
	clients, rounds, nnz int
	seed                 uint64
	asJSON               bool
	scenario             string
}

func newInProcess(fs *flag.FlagSet) cli.Runner {
	c := &inProcessCmd{}
	fs.IntVar(&c.clients, "clients", 1000, clientsHelp)
	fs.IntVar(&c.tree.Shards, "shards", 8, "aggregation shards")
	fs.IntVar(&c.tree.QueueDepth, "queue", 0, "per-shard queue depth (0 = default)")
	fs.IntVar(&c.rounds, "rounds", 5, "aggregation rounds to drive")
	fs.IntVar(&c.tree.Dim, "dim", 20000, "model dimension")
	fs.IntVar(&c.nnz, "nnz", 1000, nnzHelp)
	fs.Uint64Var(&c.seed, "seed", 1, seedHelp)
	fs.BoolVar(&c.asJSON, "json", false, jsonHelp)
	fs.StringVar(&c.scenario, "scenario", "", scenarioHelp)
	return c
}

func (c *inProcessCmd) Run() error {
	dim := c.tree.Dim
	if c.clients < 1 || c.rounds < 1 || dim < 1 || c.nnz < 1 || c.nnz > dim {
		return errors.New("need clients, rounds, dim >= 1 and 1 <= nnz <= dim")
	}
	mask, err := scheduleMask(c.scenario, c.clients, c.rounds, dim, c.nnz)
	if err != nil {
		return err
	}
	res := result{
		Mode: "stream", Clients: c.clients, Shards: c.tree.Shards,
		Rounds: c.rounds, Dim: dim, Nnz: c.nnz,
	}
	global := make([]float64, dim)
	var peakHeap uint64
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peakHeap {
			peakHeap = ms.HeapInuse
		}
	}

	var produced int64
	start := time.Now()
	tree := shard.NewTree(c.tree)
	defer tree.Close()
	for r := 0; r < c.rounds; r++ {
		produced += produce(c.clients, c.seed, r, dim, c.nnz, mask, func(id int, u *compress.Sparse) {
			tree.Ingest(r, shard.Update{Client: id, Weight: 1.0 / float64(c.clients), Delta: u})
		})
		sampleHeap()
		part, _ := tree.Finish()
		fl.FedAvg{}.ApplyPartial(global, part)
	}
	res.WallSeconds = time.Since(start).Seconds()
	sampleHeap()

	updates := float64(produced)
	// Wire-payload bytes per sparse update: int32 index + float64 value
	// per non-zero.
	bytesPerUpdate := float64(12 * c.nnz)
	res.RoundsPerSec = float64(c.rounds) / res.WallSeconds
	res.UpdatesPerSec = updates / res.WallSeconds
	res.MBFoldedPerSec = updates * bytesPerUpdate / res.WallSeconds / 1e6
	res.PeakHeapInuse = peakHeap
	res.VmHWMKB = readVmHWM()
	for _, v := range global {
		res.GlobalChecksum += v
	}

	if c.asJSON {
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	fmt.Printf("flfleet %s: %d clients x %d rounds (dim=%d nnz=%d shards=%d)\n",
		res.Mode, res.Clients, res.Rounds, res.Dim, res.Nnz, res.Shards)
	fmt.Printf("  %.2f rounds/s  %.0f updates/s  %.1f MB folded/s\n",
		res.RoundsPerSec, res.UpdatesPerSec, res.MBFoldedPerSec)
	fmt.Printf("  peak heap in use %.1f MB  VmHWM %d KB  checksum %.6g\n",
		float64(res.PeakHeapInuse)/1e6, res.VmHWMKB, res.GlobalChecksum)
	return nil
}

// scheduleMask turns a scenario into a precomputed participation mask:
// the schedule is a pure function of (config, seed, round), so the
// harness needs no live fleet state — masked-out clients simply skip
// their update. An empty path is full participation (a nil mask).
func scheduleMask(path string, clients, rounds, dim, nnz int) ([][]bool, error) {
	if path == "" {
		return nil, nil
	}
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	fleet, err := scenario.NewFleet(sc, clients)
	if err != nil {
		return nil, err
	}
	// 12 bytes per non-zero is the sparse wire cost; train time comes
	// from the scenario's device classes (dim FLOPs ≈ one sample).
	fleet.SetRoundWork(float64(dim), 1)
	mask, err := fleet.Schedule(rounds, int64(12*nnz))
	if err != nil {
		return nil, fmt.Errorf("scenario schedule: %w", err)
	}
	return mask, nil
}

// socketCmd is flfleet socket: the same synthetic fleet, but every update
// crosses a real socket as a wire frame. The role splits the fleet across
// processes when one file table cannot hold both socket ends: "server"
// waits for -role clients processes to dial in; "both" (the default)
// keeps everything local.
type socketCmd struct {
	cfg            rpc.FleetConfig
	endpoint, role string
	offset         int
	asJSON         bool
	scenario       string
}

func newSocket(fs *flag.FlagSet) cli.Runner {
	c := &socketCmd{cfg: rpc.FleetConfig{Logf: log.Printf}} // log.Printf writes to stderr, so -json keeps a clean stdout
	fs.StringVar(&c.endpoint, "addr", "", "listen and dial endpoint: unix:/path or tcp:host:port (required)")
	fs.StringVar(&c.role, "role", "both", "process role: both (server + clients in one process), server (wait for external clients), clients (dial a -role server elsewhere)")
	fs.IntVar(&c.offset, "offset", 0, offsetHelp+"; clients role only")
	fs.IntVar(&c.cfg.Clients, "clients", 1000, clientsHelp+" (clients role: how many this process drives)")
	fs.IntVar(&c.cfg.Rounds, "rounds", 5, "lockstep rounds to drive")
	fs.IntVar(&c.cfg.Dim, "dim", 20000, "model dimension")
	fs.IntVar(&c.cfg.Nnz, "nnz", 1000, nnzHelp)
	fs.Uint64Var(&c.cfg.Seed, "seed", 1, seedHelp)
	fs.BoolVar(&c.asJSON, "json", false, jsonHelp)
	fs.StringVar(&c.scenario, "scenario", "", scenarioHelp+"; -role both only")
	return c
}

// config completes the parsed flags into the fleet's config; it binds no
// socket.
func (c *socketCmd) config() (rpc.FleetConfig, error) {
	cfg := c.cfg
	network, addr, ok := strings.Cut(c.endpoint, ":")
	if !ok || (network != "unix" && network != "tcp") || addr == "" {
		return cfg, fmt.Errorf("-addr %q: want unix:/path or tcp:host:port", c.endpoint)
	}
	cfg.Network, cfg.Addr = network, addr
	switch c.role {
	case "both", "clients":
	case "server":
		cfg.ExternalClients = true
	default:
		return cfg, fmt.Errorf("unknown -role %q (want both, server or clients)", c.role)
	}
	if c.scenario != "" && c.role != "both" {
		// A split fleet's schedule must cover the global client-id space,
		// but each process only knows its own -clients count.
		return cfg, errors.New("-scenario supports -role both only")
	}
	var err error
	cfg.Mask, err = scheduleMask(c.scenario, cfg.Clients, cfg.Rounds, cfg.Dim, cfg.Nnz)
	return cfg, err
}

func (c *socketCmd) Run() error {
	cfg, err := c.config()
	if err != nil {
		return err
	}
	// Descriptor budget by role: "both" holds both ends of every
	// connection, the split roles one end each.
	need := uint64(cfg.Clients) + 64
	if c.role == "both" {
		need = uint64(cfg.Clients)*2 + 64
	}
	if limit := raiseNoFile(); limit > 0 && need > limit {
		log.Printf("flfleet: warning: role %s with %d clients needs ~%d fds, open-file limit is %d",
			c.role, cfg.Clients, need, limit)
	}
	if c.role == "clients" {
		return rpc.RunFleetClients(cfg, c.offset, c.offset+cfg.Clients)
	}
	if cfg.Network == "unix" {
		os.Remove(cfg.Addr) // a previous run's leftover socket file blocks Listen
	}
	res, err := rpc.RunFleet(cfg)
	if err != nil {
		return err
	}
	out := struct {
		rpc.FleetResult
		VmHWMKB int `json:"vm_hwm_kb"`
	}{*res, readVmHWM()}
	if c.asJSON {
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	fmt.Printf("flfleet sockets (%s): %d clients x %d rounds (dim=%d nnz=%d workers=%d)\n",
		out.Network, out.Clients, out.Rounds, out.Dim, out.Nnz, out.Workers)
	fmt.Printf("  %.0f updates/s  %.1f bytes/update  %.2f allocs/update\n",
		out.UpdatesPerSec, out.BytesPerUpdate, out.AllocsPerUpdate)
	fmt.Printf("  up %.1f MB  down %.1f MB  VmHWM %d KB  checksum %.6g\n",
		float64(out.BytesUp)/1e6, float64(out.BytesDown)/1e6, out.VmHWMKB, out.Checksum)
	return nil
}

// edgeCmd is flfleet edge: clients [offset, offset+clients) of a two-tier
// federation. Redials after an edge death reuse the bootstrap path.
type edgeCmd struct {
	cfg     edge.ClientsConfig
	clients int
}

func newEdge(fs *flag.FlagSet) cli.Runner {
	c := &edgeCmd{cfg: edge.ClientsConfig{Logf: log.Printf}}
	fs.StringVar(&c.cfg.Bootstrap, "addr", "localhost:7070", "the root's client bootstrap address")
	fs.IntVar(&c.clients, "clients", 1000, clientsHelp)
	fs.IntVar(&c.cfg.Lo, "offset", 0, offsetHelp)
	fs.IntVar(&c.cfg.Dim, "dim", 20000, "model dimension (must match the root's)")
	fs.IntVar(&c.cfg.Nnz, "nnz", 1000, nnzHelp)
	fs.Uint64Var(&c.cfg.Seed, "seed", 1, seedHelp)
	return c
}

func (c *edgeCmd) config() edge.ClientsConfig {
	cfg := c.cfg
	cfg.Hi = cfg.Lo + c.clients
	return cfg
}

func (c *edgeCmd) Run() error {
	cfg := c.config()
	start := time.Now()
	if err := edge.RunClients(cfg); err != nil {
		return err
	}
	fmt.Printf("flfleet edge clients [%d,%d): done in %.2fs\n", cfg.Lo, cfg.Hi, time.Since(start).Seconds())
	return nil
}

// asyncCmd is flfleet async: clients [offset, offset+clients) of one
// async session.
type asyncCmd struct {
	addr, session        string
	clients, offset, nnz int
	seed                 uint64
}

func newAsync(fs *flag.FlagSet) cli.Runner {
	c := &asyncCmd{}
	fs.StringVar(&c.addr, "addr", "localhost:7070", "the async session's tcp address")
	fs.StringVar(&c.session, "session", "", "named session to join on a multi-session server (empty joins the default session)")
	fs.IntVar(&c.clients, "clients", 1000, clientsHelp)
	fs.IntVar(&c.offset, "offset", 0, offsetHelp)
	fs.IntVar(&c.nnz, "nnz", 1000, nnzHelp+" (clamped to the model's dimension)")
	fs.Uint64Var(&c.seed, "seed", 1, seedHelp)
	return c
}

// Run drives the clients: each registers with a hello naming the session,
// then cycles MsgAsyncPull → synthetic MsgAsyncPush until the server's
// version budget ends the session with a shutdown notice. The deltas are
// the deterministic FleetUpdate stream sized to the pulled model, so the
// harness measures pure async fold throughput with no local training.
func (c *asyncCmd) Run() error {
	start := time.Now()
	var pushes, rejected int64
	var wg sync.WaitGroup
	for i := 0; i < c.clients; i++ {
		id := c.offset + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := rpc.Dial("tcp", c.addr, 10*time.Second)
			if err != nil {
				log.Printf("flfleet async client %d: dial: %v", id, err)
				return
			}
			defer conn.Close()
			if err := conn.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: id, NumSamples: 1, Session: c.session}); err != nil {
				log.Printf("flfleet async client %d: hello: %v", id, err)
				return
			}
			e, err := conn.Recv()
			if err != nil || e.Type != rpc.MsgWelcome {
				if err == nil && e.Type == rpc.MsgShutdown {
					atomic.AddInt64(&rejected, 1)
					return
				}
				log.Printf("flfleet async client %d: welcome: %v (%v)", id, e, err)
				return
			}
			upd := &compress.Sparse{}
			for {
				if err := conn.Send(&rpc.Envelope{Type: rpc.MsgAsyncPull, ClientID: id}); err != nil {
					return
				}
				e, err := conn.Recv()
				if err != nil || e.Type == rpc.MsgShutdown {
					return // session budget reached (or torn down under us)
				}
				if e.Type != rpc.MsgModel {
					log.Printf("flfleet async client %d: unexpected %v", id, e.Type)
					return
				}
				version, dim := e.Round, len(e.Params)
				k := c.nnz
				if k > dim {
					k = dim
				}
				rpc.FleetUpdate(upd, c.seed, version, id, dim, k)
				if err := conn.Send(&rpc.Envelope{Type: rpc.MsgAsyncPush, ClientID: id, Round: version, Update: upd}); err != nil {
					return
				}
				atomic.AddInt64(&pushes, 1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	fmt.Printf("flfleet async [%d,%d): %d pushes in %.2fs (%.0f pushes/s, %d rejected at admission)\n",
		c.offset, c.offset+c.clients, pushes, wall, float64(pushes)/wall, rejected)
	return nil
}

// produce generates one round of synthetic client updates across
// GOMAXPROCS producer goroutines and hands each to sink, returning how
// many it produced. Every update is a fresh allocation, as it would be
// arriving off the wire; generation is deterministic in (seed, round,
// client) — rpc.FleetUpdate, the same scheme the socket fleet uses, so
// checksums are comparable across the in-process and socket harnesses.
// Clients the scenario mask rules out of the round produce nothing.
func produce(clients int, seed uint64, round, dim, nnz int, mask [][]bool, sink func(id int, u *compress.Sparse)) int64 {
	workers := runtime.GOMAXPROCS(0)
	if workers > clients {
		workers = clients
	}
	var count int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := clients * w / workers
		hi := clients * (w + 1) / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var n int64
			for id := lo; id < hi; id++ {
				if mask != nil && !mask[round][id] {
					continue
				}
				u := &compress.Sparse{}
				rpc.FleetUpdate(u, seed, round, id, dim, nnz)
				sink(id, u)
				n++
			}
			atomic.AddInt64(&count, n)
		}(lo, hi)
	}
	wg.Wait()
	return count
}

// readVmHWM reports the process's peak resident set (KB) from
// /proc/self/status; 0 when unavailable (non-Linux).
func readVmHWM() int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}
