// Command flfleet is the fleet-scale load harness for the streaming
// aggregation tree (internal/shard). It simulates thousands of clients
// producing sparse updates every round — no sockets, no training — and
// measures pure aggregation throughput and memory for the two server
// strategies:
//
//	-mode stream    fold each update into its shard partial on arrival
//	                (O(shards × dim) aggregation state, constant in the
//	                fleet size)
//	-mode buffered  buffer the whole round, then screen + fold — the
//	                pre-shard server path (O(clients × nnz) live buffer)
//
// With -fleet-addr the harness leaves the in-process modes behind and
// drives the same synthetic fleet over real sockets (internal/rpc
// RunFleet): every client dials, registers and streams its updates as
// wire frames, and the server side runs the per-connection reader → pooled
// payload → bounded decode/fold worker pipeline. Unix sockets scale past
// the ~28k ephemeral-port ceiling of tcp loopback; the open-file soft
// limit is raised to the hard limit at startup (a 10k-client run needs
// two fds per client). Where one process's file table cannot hold both
// socket ends, -fleet-role splits the run: a "server" process waits for
// "clients" processes (each driving [offset, offset+clients)) to dial
// in, halving the per-process descriptor load.
//
// With -edge-bootstrap the harness instead drives the two-tier edge
// federation (internal/edge): each client dials the root's bootstrap
// listener, follows the MsgReroute welcome to its assigned regional edge,
// and answers that edge's round go-aheads with deterministic synthetic
// updates until the session shuts down. If the edge dies mid-session the
// client falls back to the bootstrap path with full-jitter backoff and is
// rerouted to a surviving sibling.
//
// Peak RSS (VmHWM) is monotonic per process, so run one configuration
// per invocation when comparing memory (-json emits one JSON object per
// configuration; bench/'s fleet_ingest.peak_rss_mb is the tracked number).
//
// Examples:
//
//	flfleet -clients 10000 -shards 8 -rounds 5 -dim 20000 -nnz 1000 -json
//	flfleet -clients 10000 -rounds 5 -dim 20000 -nnz 1000 \
//	        -fleet-addr unix:/tmp/flfleet.sock -json
package main

import (
	"bufio"
	"encoding/json"
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

	"adafl/internal/compress"
	"adafl/internal/edge"
	"adafl/internal/fl"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
	"adafl/internal/shard"
)

// result is the JSON record one invocation emits.
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

func main() {
	clients := flag.Int("clients", 1000, "simulated fleet size")
	shards := flag.Int("shards", 8, "aggregation shards")
	rounds := flag.Int("rounds", 5, "aggregation rounds to drive")
	dim := flag.Int("dim", 20000, "model dimension")
	nnz := flag.Int("nnz", 1000, "non-zeros per client update")
	queue := flag.Int("queue", 0, "per-shard queue depth (0 = default)")
	seed := flag.Uint64("seed", 1, "update-generation seed")
	asJSON := flag.Bool("json", false, "emit the result as one JSON object on stdout")
	fleetAddr := flag.String("fleet-addr", "", "drive the fleet over real sockets at this endpoint (unix:/path or tcp:host:port); empty keeps the in-process harness")
	workers := flag.Int("workers", 0, "socket-mode decode/fold workers (0 = GOMAXPROCS)")
	fleetRole := flag.String("fleet-role", "both", "socket-mode process role: both (server + clients in one process), server (wait for external clients), clients (dial a -fleet-role server elsewhere)")
	fleetOffset := flag.Int("fleet-offset", 0, "first client id this clients-role process drives (its range is [offset, offset+clients))")
	scenarioPath := flag.String("scenario", "", "declarative scenario file: its precomputed availability schedule masks which clients produce an update each round (energy depletion, churn, outages)")
	edgeBootstrap := flag.String("edge-bootstrap", "", "drive the fleet against a two-tier federation: dial this root bootstrap address, follow the reroute to the assigned edge, and answer its round go-aheads (clients [fleet-offset, fleet-offset+clients))")
	asyncAddr := flag.String("async-addr", "", "drive the fleet against a buffered-asynchronous flserver -async session at this tcp address: each client registers, then cycles pull→push with deterministic synthetic deltas (no training) until the session's version budget shuts it down")
	sessionName := flag.String("session", "", "async mode: named session to join on a multi-session server (empty joins the default session)")
	flag.Parse()

	if *asyncAddr != "" {
		runAsyncFleet(*asyncAddr, *sessionName, *clients, *nnz, *fleetOffset, *seed)
		return
	}

	if *edgeBootstrap != "" {
		// Two-tier mode: the fleet clients dial the root's bootstrap
		// listener, get rerouted to their assigned edges, and serve rounds
		// until the session shuts down. Redials after an edge death reuse
		// the same bootstrap path.
		start := time.Now()
		err := edge.RunClients(edge.ClientsConfig{
			Bootstrap: *edgeBootstrap,
			Lo:        *fleetOffset, Hi: *fleetOffset + *clients,
			Dim: *dim, Nnz: *nnz, Seed: *seed,
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("flfleet: edge fleet: %v", err)
		}
		fmt.Printf("flfleet edge clients [%d,%d): done in %.2fs\n",
			*fleetOffset, *fleetOffset+*clients, time.Since(start).Seconds())
		return
	}

	// A scenario turns into a precomputed participation mask: the schedule
	// is a pure function of (config, seed, round), so the harness needs no
	// live fleet state — masked-out clients simply skip their update.
	var mask [][]bool
	if *scenarioPath != "" {
		sc, err := scenario.Load(*scenarioPath)
		if err != nil {
			log.Fatalf("flfleet: %v", err)
		}
		fleet, err := scenario.NewFleet(sc, *clients)
		if err != nil {
			log.Fatalf("flfleet: %v", err)
		}
		// 12 bytes per non-zero is the sparse wire cost; train time comes
		// from the scenario's device classes (dim FLOPs ≈ one sample).
		fleet.SetRoundWork(float64(*dim), 1)
		mask, err = fleet.Schedule(*rounds, int64(12**nnz))
		if err != nil {
			log.Fatalf("flfleet: scenario schedule: %v", err)
		}
	}

	if *fleetAddr != "" {
		runSocketFleet(*fleetAddr, *fleetRole, *workers, *clients, *rounds, *dim, *nnz, *queue, *fleetOffset, *seed, *asJSON, mask)
		return
	}
	if *clients < 1 || *rounds < 1 || *dim < 1 || *nnz < 1 || *nnz > *dim {
		log.Fatalf("flfleet: need clients, rounds, dim >= 1 and 1 <= nnz <= dim")
	}

	res := result{
		Mode: "stream", Clients: *clients, Shards: *shards,
		Rounds: *rounds, Dim: *dim, Nnz: *nnz,
	}
	global := make([]float64, *dim)
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
	tree := shard.NewTree(shard.Config{
		Shards: *shards, Dim: *dim, QueueDepth: *queue,
	})
	defer tree.Close()
	for r := 0; r < *rounds; r++ {
		produced += produce(*clients, *seed, r, *dim, *nnz, mask, func(id int, u *compress.Sparse) {
			tree.Ingest(r, shard.Update{Client: id, Weight: 1.0 / float64(*clients), Delta: u})
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
	bytesPerUpdate := float64(12 * *nnz)
	res.RoundsPerSec = float64(*rounds) / res.WallSeconds
	res.UpdatesPerSec = updates / res.WallSeconds
	res.MBFoldedPerSec = updates * bytesPerUpdate / res.WallSeconds / 1e6
	res.PeakHeapInuse = peakHeap
	res.VmHWMKB = readVmHWM()
	for _, v := range global {
		res.GlobalChecksum += v
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("flfleet %s: %d clients x %d rounds (dim=%d nnz=%d shards=%d)\n",
		res.Mode, res.Clients, res.Rounds, res.Dim, res.Nnz, res.Shards)
	fmt.Printf("  %.2f rounds/s  %.0f updates/s  %.1f MB folded/s\n",
		res.RoundsPerSec, res.UpdatesPerSec, res.MBFoldedPerSec)
	fmt.Printf("  peak heap in use %.1f MB  VmHWM %d KB  checksum %.6g\n",
		float64(res.PeakHeapInuse)/1e6, res.VmHWMKB, res.GlobalChecksum)
}

// runSocketFleet is the -fleet-addr path: the same synthetic fleet, but
// every update crosses a real socket as a wire frame.
// The role splits the fleet across processes when one file table cannot
// hold both socket ends: "server" waits for -fleet-role clients
// processes to dial in; "both" (the default) keeps everything local.
func runSocketFleet(endpoint, role string, workers, clients, rounds, dim, nnz, queue, offset int, seed uint64, asJSON bool, mask [][]bool) {
	network, addr, ok := strings.Cut(endpoint, ":")
	if !ok || (network != "unix" && network != "tcp") || addr == "" {
		log.Fatalf("flfleet: -fleet-addr %q: want unix:/path or tcp:host:port", endpoint)
	}
	if mask != nil && role != "both" {
		// A split fleet's schedule must cover the global client-id space,
		// but each process only knows its own -clients count.
		log.Fatal("flfleet: -scenario supports -fleet-role both only")
	}
	// Descriptor budget by role: "both" holds both ends of every
	// connection, the split roles one end each.
	need := uint64(clients) + 64
	if role == "both" {
		need = uint64(clients)*2 + 64
	}
	if limit := raiseNoFile(); limit > 0 && need > limit {
		log.Printf("flfleet: warning: role %s with %d clients needs ~%d fds, open-file limit is %d",
			role, clients, need, limit)
	}
	cfg := rpc.FleetConfig{
		Network: network, Addr: addr,
		Clients: clients, Rounds: rounds, Dim: dim, Nnz: nnz,
		// log.Printf writes to stderr, so -json keeps a clean stdout.
		Workers: workers, Queue: queue, Seed: seed, Mask: mask, Logf: log.Printf,
	}
	switch role {
	case "clients":
		if err := rpc.RunFleetClients(cfg, offset, offset+clients); err != nil {
			log.Fatalf("flfleet: fleet clients: %v", err)
		}
		return
	case "server":
		cfg.ExternalClients = true
	case "both":
	default:
		log.Fatalf("flfleet: unknown -fleet-role %q (want both, server or clients)", role)
	}
	if network == "unix" {
		os.Remove(addr) // a previous run's leftover socket file blocks Listen
	}
	res, err := rpc.RunFleet(cfg)
	if err != nil {
		log.Fatalf("flfleet: socket fleet: %v", err)
	}
	out := struct {
		rpc.FleetResult
		VmHWMKB int `json:"vm_hwm_kb"`
	}{*res, readVmHWM()}
	if asJSON {
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("flfleet sockets (%s): %d clients x %d rounds (dim=%d nnz=%d workers=%d)\n",
		out.Network, out.Clients, out.Rounds, out.Dim, out.Nnz, out.Workers)
	fmt.Printf("  %.0f updates/s  %.1f bytes/update  %.2f allocs/update\n",
		out.UpdatesPerSec, out.BytesPerUpdate, out.AllocsPerUpdate)
	fmt.Printf("  up %.1f MB  down %.1f MB  VmHWM %d KB  checksum %.6g\n",
		float64(out.BytesUp)/1e6, float64(out.BytesDown)/1e6, out.VmHWMKB, out.Checksum)
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

// runAsyncFleet drives clients [offset, offset+n) against one async
// session: each registers with a hello naming the session, then cycles
// MsgAsyncPull → synthetic MsgAsyncPush until the server's version
// budget ends the session with a shutdown notice. The deltas are the
// deterministic FleetUpdate stream sized to the pulled model, so the
// harness measures pure async fold throughput with no local training.
func runAsyncFleet(addr, session string, n, nnz, offset int, seed uint64) {
	start := time.Now()
	var pushes, rejected int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := offset + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := rpc.Dial("tcp", addr, 10*time.Second)
			if err != nil {
				log.Printf("flfleet async client %d: dial: %v", id, err)
				return
			}
			defer conn.Close()
			if err := conn.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: id, NumSamples: 1, Session: session}); err != nil {
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
				k := nnz
				if k > dim {
					k = dim
				}
				rpc.FleetUpdate(upd, seed, version, id, dim, k)
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
		offset, offset+n, pushes, wall, float64(pushes)/wall, rejected)
}
