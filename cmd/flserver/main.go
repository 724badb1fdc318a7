// Command flserver runs the AdaFL federation server over TCP.
//
// It synthesises the held-out test set locally (clients generate their own
// shards from the shared seed), waits for -clients registrations, runs
// -rounds of utility-guided selection + adaptive compression, and prints
// per-round accuracy.
//
// Example (four terminals):
//
//	flserver -addr :7070 -clients 3 -rounds 30
//	flclient -addr localhost:7070 -id 0 -clients 3
//	flclient -addr localhost:7070 -id 1 -clients 3
//	flclient -addr localhost:7070 -id 2 -clients 3
//
// With -root or -edge the binary instead runs one tier of the two-tier
// edge federation (internal/edge): a root that merges per-edge partials
// in ascending edge ID and reroutes clients off dead edges, and regional
// edge aggregators that front fleet clients and stream one partial
// upstream per round. A two-edge session (four terminals):
//
//	flserver -root -edges 2 -clients 64 -rounds 10 -dim 20000
//	flserver -edge -edge-id 0 -edge-region eu -root-addr localhost:7071
//	flserver -edge -edge-id 1 -edge-region us -root-addr localhost:7071
//	flfleet  -edge-bootstrap localhost:7070 -clients 64 -dim 20000 -nnz 1000
//
// With -async the binary runs the buffered-asynchronous (FedBuff) engine
// instead of lockstep rounds: clients cycle pull→train→push freely, the
// server folds arrivals into a staleness-weighted buffer and applies it
// every -buffer-k pushes. -sessions multiplexes several independent
// async sessions over the one listener; clients pick theirs with
// flclient -session. A two-session example:
//
//	flserver -async -sessions edge-eu,edge-us -versions 50 -clients 8
//	flclient -async -session edge-eu -id 0 -clients 8
//	flclient -async -session edge-us -id 1 -clients 8
//
// The doctor subcommand audits a checkpoint directory (and optionally
// its JSONL event log) offline, exiting non-zero on any inconsistency:
//
//	flserver doctor -checkpoint-dir ./ckpt -event-log ./events.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/edge"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
	"adafl/internal/session"
	"adafl/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "doctor" {
		runDoctor(os.Args[2:])
		return
	}
	addr := flag.String("addr", ":7070", "listen address")
	clients := flag.Int("clients", 3, "number of clients to wait for")
	rounds := flag.Int("rounds", 30, "training rounds")
	k := flag.Int("k", 0, "max selected clients per round (default clients/2)")
	tau := flag.Float64("tau", 0.5, "utility threshold")
	warmup := flag.Int("warmup", 5, "warm-up rounds of full participation")
	seed := flag.Uint64("seed", 1, "shared experiment seed")
	imgSize := flag.Int("imgsize", 16, "synthetic image size")
	samples := flag.Int("samples", 2000, "total synthetic samples")
	straggler := flag.Duration("straggler-timeout", 30*time.Second, "per-phase deadline before a laggard is evicted")
	minClients := flag.Int("min-clients", 1, "roster floor: end the session cleanly below this many live clients")
	ckptDir := flag.String("checkpoint-dir", "", "directory for the session's checkpoint chain: one delta epoch per round or model version, written behind the next (empty disables checkpointing; a directory that already holds a chain needs -resume)")
	resume := flag.Bool("resume", false, "restore the latest epoch in -checkpoint-dir and continue from the round after the crash (fresh start if the directory holds no chain)")
	maxNorm := flag.Float64("max-update-norm", 10, "quarantine updates whose L2 norm exceeds this multiple of the round median (0 disables the gate)")
	shards := flag.Int("shards", 0, "fold each round's screened updates through this many aggregation shards (0 = one shard; the global is bit-deterministic for a fixed count)")
	metricsAddr := flag.String("metrics-addr", "", "listen address for the debug HTTP server (/metrics, /healthz, /debug/pprof); empty disables it")
	eventLog := flag.String("event-log", "", "append one JSON line per round event (selection, update, evict, quarantine, aggregate, round, checkpoint) to this file; empty disables it")
	scenarioPath := flag.String("scenario", "", "declarative scenario file (energy model, churn, device classes): gates selection on availability, scales utility scores by battery level, and checkpoints scenario state for -resume")
	scenarioLog := flag.String("scenario-log", "", "append the deterministic per-round scenario schedule (JSONL) to this file; byte-identical across runs at the same seed, unlike -event-log")
	negotiate := flag.Bool("negotiate", false, "negotiate each selected client's uplink codec+ratio per round from its observed link state (EWMA bytes, scenario bandwidth); assignments travel in the Select broadcast and join the session checkpoint")
	assignLog := flag.String("assign-log", "", "append the deterministic per-round codec assignments (JSONL, sorted by client id) to this file; byte-identical across replays, like -scenario-log (needs -negotiate)")

	// Buffered-asynchronous (FedBuff) mode and the multi-session control
	// plane (internal/session).
	asyncMode := flag.Bool("async", false, "run the buffered-asynchronous engine: no round barrier, arrivals fold into a staleness-weighted buffer applied every -buffer-k pushes")
	sessionsFlag := flag.String("sessions", "", "comma-separated session names multiplexed over one listener, each an independent async engine (implies -async); empty runs the single \"default\" session")
	bufferK := flag.Int("buffer-k", 0, "async: buffer size — accepted pushes per model-version apply (default max(clients/2, 1))")
	maxStaleness := flag.Int("max-staleness", 0, "async: reject pushes whose base model is more than this many versions behind the global (0 accepts any staleness; slow clients are never evicted)")
	versions := flag.Int("versions", 0, "async: model-version budget per session (default -rounds)")
	eta := flag.Float64("eta", 1, "async: server learning rate applied to the weighted buffer mean")

	// Two-tier federation modes (internal/edge). -root runs the top of the
	// tree, -edge one regional aggregator; without either the binary runs
	// the flat single-server session above.
	rootMode := flag.Bool("root", false, "run the two-tier federation root: merge per-edge partials (ascending edge ID), reroute clients off dead edges via the cost graph")
	edgeMode := flag.Bool("edge", false, "run one regional edge aggregator: fold client updates, screen, stream one partial per round to -root-addr")
	dim := flag.Int("dim", 20000, "model dimension for the -root/-edge federation modes")
	edges := flag.Int("edges", 2, "root mode: edge roster size the session waits for")
	rootListen := flag.String("root-listen", ":7071", "root mode: edge-facing listen address")
	bootstrapListen := flag.String("bootstrap-listen", ":7070", "root mode: client bootstrap listen address (clients dial here and are rerouted to their edge)")
	heartbeatTimeout := flag.Duration("heartbeat-timeout", edge.DefaultHeartbeatTimeout, "root mode: silence window after which a registered edge is declared dead and its clients rerouted")
	edgeID := flag.Int("edge-id", 0, "edge mode: unique edge identity (the root merges partials in ascending edge ID)")
	edgeRegion := flag.String("edge-region", "", "edge mode: scenario region for reroute affinity and outage exclusion")
	edgeListen := flag.String("edge-listen", "", "edge mode: client-facing listen address (empty binds an ephemeral port; the root learns it from the edge hello)")
	rootAddr := flag.String("root-addr", "", "edge mode: the root's edge-facing address to dial")
	heartbeatInterval := flag.Duration("heartbeat-interval", edge.DefaultHeartbeatInterval, "edge mode: ping cadence to the root")
	rootRetries := flag.Int("root-retries", 10, "edge mode: consecutive failed root redials before giving up (full-jitter backoff; the budget resets on progress)")

	faults := rpc.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()

	if *rootMode && *edgeMode {
		log.Fatal("flserver: -root and -edge are mutually exclusive")
	}
	if (*asyncMode || *sessionsFlag != "") && (*rootMode || *edgeMode) {
		log.Fatal("flserver: -async is mutually exclusive with -root/-edge")
	}
	if *asyncMode || *sessionsFlag != "" {
		if *versions <= 0 {
			*versions = *rounds
		}
		if *bufferK <= 0 {
			*bufferK = (*clients + 1) / 2
		}
		runAsync(asyncFlags{
			addr: *addr, sessions: *sessionsFlag,
			clients: *clients, versions: *versions, k: *bufferK,
			maxStaleness: *maxStaleness, eta: *eta, maxNorm: *maxNorm,
			shards: *shards, seed: *seed, imgSize: *imgSize, samples: *samples,
			ckptDir: *ckptDir, resume: *resume,
			metricsAddr: *metricsAddr, eventLog: *eventLog,
			fault: faults.Config(),
		})
		return
	}
	if *rootMode {
		runRoot(rootFlags{
			listen: *rootListen, bootstrap: *bootstrapListen,
			edges: *edges, clients: *clients, rounds: *rounds, dim: *dim,
			heartbeatTimeout: *heartbeatTimeout, ckptDir: *ckptDir, resume: *resume,
			metricsAddr: *metricsAddr, eventLog: *eventLog,
		})
		return
	}
	if *edgeMode {
		ef := edgeFlags{
			id: *edgeID, region: *edgeRegion, listen: *edgeListen,
			rootAddr: *rootAddr, dim: *dim,
			maxNorm: *maxNorm, heartbeatInterval: *heartbeatInterval,
			retries: *rootRetries, seed: *seed,
			metricsAddr: *metricsAddr, eventLog: *eventLog,
		}
		if *negotiate {
			ef.negotiation = negotiation()
		}
		runEdge(ef)
		return
	}

	if *k <= 0 {
		*k = (*clients + 1) / 2
	}

	// The held-out test split. Clients derive their shards from the same
	// seed, so data never crosses the network — exactly as in FL.
	ds := dataset.SynthMNIST(*samples, *imgSize, *seed)
	_, test := ds.Split(0.8, *seed+1)

	size := *imgSize
	modelSeed := *seed + 3
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, size, size}, []int{32}, 10, stats.NewRNG(modelSeed))
	}

	cfg := core.DefaultConfig()
	cfg.K = *k
	cfg.Tau = *tau
	cfg.Compression.WarmupRounds = *warmup
	cfg.ScaleRatiosForModel(newModel().NumParams())

	var metrics *obs.Registry
	if *metricsAddr != "" {
		metrics = obs.NewRegistry()
		dbg, err := obs.NewDebugServer(*metricsAddr, metrics)
		if err != nil {
			log.Fatalf("flserver: metrics server: %v", err)
		}
		defer dbg.Close()
		log.Printf("flserver: metrics at http://%s/metrics", dbg.Addr())
	}
	var events *obs.EventLog
	if *eventLog != "" {
		var err error
		events, err = obs.OpenEventLog(*eventLog)
		if err != nil {
			log.Fatalf("flserver: event log: %v", err)
		}
		defer func() {
			if err := events.Close(); err != nil {
				log.Printf("flserver: event log close: %v", err)
			}
		}()
	}

	scfg := rpc.ServerConfig{
		Addr: *addr, NumClients: *clients, Rounds: *rounds,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 1,
		StragglerTimeout: *straggler, MinClients: *minClients,
		CheckpointDir: *ckptDir, Resume: *resume,
		MaxUpdateNorm: *maxNorm, Shards: *shards,
		Fault: faults.Config(), Metrics: metrics, Events: events,
	}
	if *negotiate {
		scfg.Negotiation = negotiation()
		if *assignLog != "" {
			af, err := os.OpenFile(*assignLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("flserver: assign log: %v", err)
			}
			defer af.Close()
			scfg.AssignLog = af
		}
	} else if *assignLog != "" {
		log.Fatal("flserver: -assign-log needs -negotiate")
	}
	if *scenarioPath != "" {
		sc, err := scenario.Load(*scenarioPath)
		if err != nil {
			log.Fatalf("flserver: %v", err)
		}
		fleet, err := scenario.NewFleet(sc, *clients)
		if err != nil {
			log.Fatalf("flserver: %v", err)
		}
		// Energy accounting assumes flclient's default -steps/-batch; the
		// transmit drain uses the real per-update wire bytes regardless.
		fleet.SetRoundWork(newModel().FLOPsPerSample(), 4*16)
		scfg.Scenario = fleet
		if *scenarioLog != "" {
			lf, err := os.OpenFile(*scenarioLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("flserver: scenario log: %v", err)
			}
			defer lf.Close()
			scfg.ScenarioLog = lf
		}
	} else if *scenarioLog != "" {
		log.Fatal("flserver: -scenario-log needs -scenario")
	}
	srv, err := rpc.NewServer(scfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("flserver: listening on %s, waiting for %d clients", srv.Addr(), *clients)
	res, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	resumed := ""
	if res.ResumedFrom >= 0 {
		resumed = fmt.Sprintf("  (resumed at round %d)", res.ResumedFrom+1)
	}
	fmt.Printf("final accuracy: %.3f  uplink: %.1f KB  rounds: %d  evictions: %d  quarantined: %d%s%s\n",
		res.FinalAcc, float64(res.BytesReceived)/1e3, len(res.Rounds), res.Evictions, len(res.Quarantines),
		map[bool]string{true: "  (ended early: roster below min-clients)"}[res.EndedEarly], resumed)
}

// negotiation is what -negotiate turns on: the default switch ratio,
// level bounds and doubling schedule, which no run has ever changed.
func negotiation() core.NegotiationConfig {
	nc := core.DefaultNegotiation()
	nc.Enabled = true
	return nc
}

// rootFlags and edgeFlags carry the parsed federation-mode flags into
// their runners; the flat-session path above never constructs them.
type rootFlags struct {
	listen, bootstrap      string
	edges, clients, rounds int
	dim                    int
	heartbeatTimeout       time.Duration
	ckptDir                string
	resume                 bool
	metricsAddr, eventLog  string
}

type edgeFlags struct {
	id                    int
	region, listen        string
	rootAddr              string
	dim                   int
	maxNorm               float64
	heartbeatInterval     time.Duration
	retries               int
	seed                  uint64
	metricsAddr, eventLog string
	negotiation           core.NegotiationConfig
}

// openObs builds the optional metrics registry and event log shared by the
// federation modes; the returned cleanup is safe to defer unconditionally.
func openObs(metricsAddr, eventLog, who string) (*obs.Registry, *obs.EventLog, func()) {
	var metrics *obs.Registry
	var dbg *obs.DebugServer
	if metricsAddr != "" {
		metrics = obs.NewRegistry()
		var err error
		dbg, err = obs.NewDebugServer(metricsAddr, metrics)
		if err != nil {
			log.Fatalf("%s: metrics server: %v", who, err)
		}
		log.Printf("%s: metrics at http://%s/metrics", who, dbg.Addr())
	}
	var events *obs.EventLog
	if eventLog != "" {
		var err error
		events, err = obs.OpenEventLog(eventLog)
		if err != nil {
			log.Fatalf("%s: event log: %v", who, err)
		}
	}
	return metrics, events, func() {
		if events != nil {
			if err := events.Close(); err != nil {
				log.Printf("%s: event log close: %v", who, err)
			}
		}
		if dbg != nil {
			dbg.Close()
		}
	}
}

// runRoot is the -root mode: the top of the two-tier tree.
func runRoot(f rootFlags) {
	metrics, events, cleanup := openObs(f.metricsAddr, f.eventLog, "flserver root")
	defer cleanup()
	r, err := edge.NewRoot(edge.RootConfig{
		EdgeAddr: f.listen, ClientAddr: f.bootstrap,
		NumEdges: f.edges, Clients: f.clients, Rounds: f.rounds, Dim: f.dim,
		HeartbeatTimeout: f.heartbeatTimeout, CheckpointDir: f.ckptDir, Resume: f.resume,
		Metrics: metrics, Events: events, Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("flserver root: %v", err)
	}
	log.Printf("flserver root: edges at %s, client bootstrap at %s, waiting for %d edges / %d clients",
		r.EdgeAddr(), r.BootstrapAddr(), f.edges, f.clients)
	res, err := r.Run()
	if err != nil {
		log.Fatalf("flserver root: %v", err)
	}
	resumed := ""
	if res.Resumed > 0 {
		resumed = fmt.Sprintf("  (resumed %d rounds)", res.Resumed)
	}
	var checksum float64
	for _, v := range res.Global {
		checksum += v
	}
	fmt.Printf("root: %d rounds  epoch %d  reroutes %d  orphans %d  checksum %.6g%s\n",
		len(res.History), res.Epoch, res.Reroutes, res.Orphans, checksum, resumed)
}

// runEdge is the -edge mode: one regional aggregator.
func runEdge(f edgeFlags) {
	if f.rootAddr == "" {
		log.Fatal("flserver edge: -root-addr is required")
	}
	metrics, events, cleanup := openObs(f.metricsAddr, f.eventLog, "flserver edge")
	defer cleanup()
	e, err := edge.NewEdge(edge.EdgeConfig{
		ID: f.id, ClientAddr: f.listen, RootAddr: f.rootAddr,
		Region: f.region, Dim: f.dim,
		MaxUpdateNorm: f.maxNorm, HeartbeatInterval: f.heartbeatInterval,
		MaxRetries: f.retries, Seed: f.seed, Negotiation: f.negotiation,
		Metrics: metrics, Events: events, Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("flserver edge: %v", err)
	}
	log.Printf("flserver edge %d (%s): clients at %s, root at %s",
		f.id, f.region, e.ClientAddr(), f.rootAddr)
	res, err := e.Run()
	if err != nil {
		log.Fatalf("flserver edge: %v", err)
	}
	fmt.Printf("edge %d: %d rounds  folded %d  quarantined %d  peak clients %d\n",
		f.id, res.Rounds, res.Folded, res.Quarantined, res.PeakClients)
}

// asyncFlags carries the parsed -async mode flags into runAsync.
type asyncFlags struct {
	addr, sessions        string
	clients, versions, k  int
	maxStaleness          int
	eta, maxNorm          float64
	shards                int
	seed                  uint64
	imgSize, samples      int
	ckptDir               string
	resume                bool
	metricsAddr, eventLog string
	fault                 *rpc.FaultConfig
}

// runAsync is the -async mode: one Manager-owned listener multiplexing
// one or more buffered-asynchronous sessions.
func runAsync(f asyncFlags) {
	names := []string{session.DefaultSession}
	if f.sessions != "" {
		names = nil
		for _, n := range strings.Split(f.sessions, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			log.Fatal("flserver: -sessions named no sessions")
		}
	}
	metrics, _, cleanup := openObs(f.metricsAddr, "", "flserver")
	defer cleanup()

	ds := dataset.SynthMNIST(f.samples, f.imgSize, f.seed)
	_, test := ds.Split(0.8, f.seed+1)
	size, modelSeed := f.imgSize, f.seed+3
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, size, size}, []int{32}, 10, stats.NewRNG(modelSeed))
	}

	m, err := session.NewManager(session.Config{Addr: f.addr, Fault: f.fault, Logf: log.Printf})
	if err != nil {
		log.Fatalf("flserver: %v", err)
	}
	defer m.Close()

	engines := make([]*session.AsyncSession, len(names))
	logs := make([]*obs.EventLog, len(names))
	for i, name := range names {
		cfg := session.AsyncConfig{
			Name: name, NewModel: newModel, Test: test, EvalEvery: 1,
			K: f.k, MaxStaleness: f.maxStaleness, Eta: f.eta,
			Versions: f.versions, MaxClients: f.clients,
			MaxUpdateNorm: f.maxNorm, Shards: f.shards,
			Resume: f.resume, Metrics: metrics, Logf: log.Printf,
		}
		// Each session gets its own chain and event log so the doctor can
		// audit them independently; a single session keeps the bare paths.
		if f.ckptDir != "" {
			cfg.CheckpointDir = f.ckptDir
			if len(names) > 1 {
				cfg.CheckpointDir = filepath.Join(f.ckptDir, name)
			}
		}
		if f.eventLog != "" {
			path := f.eventLog
			if len(names) > 1 {
				path += "." + name
			}
			if dir := filepath.Dir(path); dir != "." {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					log.Fatalf("flserver: event log dir: %v", err)
				}
			}
			ev, err := obs.OpenEventLog(path)
			if err != nil {
				log.Fatalf("flserver: event log: %v", err)
			}
			defer func() {
				if err := ev.Close(); err != nil {
					log.Printf("flserver: event log close: %v", err)
				}
			}()
			logs[i] = ev
			cfg.Events = ev
		}
		a, err := session.NewAsync(cfg)
		if err != nil {
			log.Fatalf("flserver: session %q: %v", name, err)
		}
		if err := m.Register(name, a); err != nil {
			log.Fatalf("flserver: session %q: %v", name, err)
		}
		engines[i] = a
	}
	go m.Serve()
	log.Printf("flserver: async sessions %v on %s (K=%d, budget %d versions each)",
		names, m.Addr(), f.k, f.versions)

	results := make([]*session.AsyncResult, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i := range engines {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = engines[i].Run()
		}()
	}
	wg.Wait()
	failed := false
	for i, name := range names {
		if errs[i] != nil {
			log.Printf("flserver: session %q: %v", name, errs[i])
			failed = true
			continue
		}
		res := results[i]
		resumed := ""
		if res.ResumedFrom >= 0 {
			resumed = fmt.Sprintf("  (resumed at version %d)", res.ResumedFrom)
		}
		fmt.Printf("session %s: versions=%d acc=%.3f pushes=%d stale-rejected=%d quarantined=%d evictions=%d uplink=%.1fKB%s\n",
			name, res.Versions, res.FinalAcc, res.Pushes, res.StaleRejected,
			len(res.Quarantines), res.Evictions, float64(res.BytesReceived)/1e3, resumed)
		fmt.Printf("session %s: staleness histogram %s\n", name, stalenessLine(res.StalenessCounts))
	}
	if failed {
		os.Exit(1)
	}
}

// stalenessLine renders a staleness histogram as "s=0:12 s=1:3 ...".
func stalenessLine(counts map[int]int) string {
	if len(counts) == 0 {
		return "(no pushes)"
	}
	keys := make([]int, 0, len(counts))
	for s := range counts {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, s := range keys {
		parts = append(parts, fmt.Sprintf("s=%d:%d", s, counts[s]))
	}
	return strings.Join(parts, " ")
}

// runDoctor is the doctor subcommand: an offline checkpoint/event-log
// audit that exits non-zero when the artifacts are inconsistent.
func runDoctor(args []string) {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	dir := fs.String("checkpoint-dir", "", "checkpoint directory to audit (a sync server's, an async session's or a root's)")
	events := fs.String("event-log", "", "JSONL event log to cross-check against the checkpoint (optional)")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "flserver doctor: -checkpoint-dir is required")
		fs.Usage()
		os.Exit(2)
	}
	rep, err := session.Doctor(*dir, *events, os.Stdout)
	if err != nil {
		log.Fatalf("flserver doctor: %v", err)
	}
	if !rep.Healthy() {
		os.Exit(1)
	}
}
