// Command flserver runs the AdaFL federation server over TCP. Each engine
// is a subcommand with a flag set of its own, so a flag the engine does
// not read is an error instead of silently ignored.
//
// With no subcommand it runs synchronous rounds: it synthesises the
// held-out test set locally (clients generate their own shards from the
// shared seed), waits for -clients registrations, runs -rounds of
// utility-guided selection + adaptive compression, and prints per-round
// accuracy. Four terminals:
//
//	flserver -addr :7070 -clients 3 -rounds 30
//	flclient -addr localhost:7070 -id 0 -clients 3
//	flclient -addr localhost:7070 -id 1 -clients 3
//	flclient -addr localhost:7070 -id 2 -clients 3
//
// flserver async runs the buffered-asynchronous (FedBuff) engine instead
// of lockstep rounds: clients cycle pull→train→push freely, the server
// folds arrivals into a staleness-weighted buffer and applies it every
// -buffer-k pushes. -sessions multiplexes several independent sessions
// over the one listener; clients pick theirs with flclient async -session:
//
//	flserver async -sessions edge-eu,edge-us -versions 50 -clients 8
//	flclient async -session edge-eu -id 0 -clients 8
//	flclient async -session edge-us -id 1 -clients 8
//
// flserver root and flserver edge run the two tiers of the edge
// federation (internal/edge): a root that merges per-edge partials in
// ascending edge ID and reroutes clients off dead edges, and regional
// edge aggregators that front fleet clients and stream one partial
// upstream per round:
//
//	flserver root -edges 2 -clients 64 -rounds 10 -dim 20000
//	flserver edge -id 0 -root-addr localhost:7071
//	flserver edge -id 1 -root-addr localhost:7071
//	flfleet edge -addr localhost:7070 -clients 64 -dim 20000 -nnz 1000
//
// flserver doctor audits a checkpoint directory (and optionally its JSONL
// event log) offline, exiting non-zero on any inconsistency:
//
//	flserver doctor -checkpoint-dir ./ckpt -event-log ./events.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adafl/cmd/internal/cli"
	"adafl/internal/core"
	"adafl/internal/edge"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
	"adafl/internal/session"
)

var commands = []cli.Command{
	{Summary: "synchronous AdaFL rounds: utility-guided selection, adaptive compression, FedAvg", Flags: newSync},
	{Name: "async", Summary: "buffered-asynchronous (FedBuff) sessions multiplexed over one listener", Flags: newAsync},
	{Name: "root", Summary: "the root of the two-tier edge federation: merge edge partials, reroute clients off dead edges", Flags: newRoot},
	{Name: "edge", Summary: "one regional edge aggregator: fold and screen client updates, stream one partial per round to the root", Flags: newEdge},
	{Name: "doctor", Summary: "audit a checkpoint directory (and its event log) offline; non-zero exit on any inconsistency", Flags: newDoctor},
}

func main() { cli.Main("flserver", commands) }

// Help shared by the subcommands that take the flag.
const (
	ckptHelp    = "directory for the checkpoint: one snapshot file, replaced every round or model version behind the next (empty disables checkpointing; a directory that already holds a snapshot needs -resume)"
	resumeHelp  = "restore the snapshot in -checkpoint-dir and continue after it (fresh start if the directory holds none)"
	normHelp    = "quarantine updates whose L2 norm exceeds this multiple of the median (0 disables the gate)"
	negoHelp    = "negotiate each selected client's uplink codec+ratio per round from its observed link state"
	clientsHelp = "number of clients to wait for"
)

// syncCmd is the default subcommand: the flat synchronous server. The
// flags that map one to one onto a ServerConfig field are bound to it.
type syncCmd struct {
	cfg                              rpc.ServerConfig
	task                             cli.Task
	negotiate                        bool
	scenario, scenarioLog, assignLog string
	metricsAddr, eventLog            *string
}

func newSync(fs *flag.FlagSet) cli.Runner {
	c := &syncCmd{cfg: rpc.ServerConfig{Cfg: core.DefaultConfig(), EvalEvery: 1}}
	fs.StringVar(&c.cfg.Addr, "addr", ":7070", "listen address")
	fs.IntVar(&c.cfg.NumClients, "clients", 3, clientsHelp)
	fs.IntVar(&c.cfg.Rounds, "rounds", 30, "training rounds")
	fs.IntVar(&c.cfg.Cfg.K, "k", 0, "max selected clients per round (default clients/2)")
	fs.Float64Var(&c.cfg.Cfg.Tau, "tau", 0.5, "utility threshold")
	fs.IntVar(&c.cfg.Cfg.Compression.WarmupRounds, "warmup", 5, "warm-up rounds of full participation")
	c.task.Register(fs)
	fs.DurationVar(&c.cfg.StragglerTimeout, "straggler-timeout", 30*time.Second, "per-phase deadline before a laggard is evicted")
	fs.IntVar(&c.cfg.MinClients, "min-clients", 1, "roster floor: end the session cleanly below this many live clients")
	fs.StringVar(&c.cfg.CheckpointDir, "checkpoint-dir", "", ckptHelp)
	fs.BoolVar(&c.cfg.Resume, "resume", false, resumeHelp)
	fs.Float64Var(&c.cfg.MaxUpdateNorm, "max-update-norm", 10, normHelp)
	c.metricsAddr = cli.MetricsFlag(fs)
	c.eventLog = cli.EventLogFlag(fs)
	fs.StringVar(&c.scenario, "scenario", "", "declarative scenario file (energy model, churn, device classes): gates selection on availability, scales utility scores by battery level, and checkpoints scenario state for -resume")
	fs.StringVar(&c.scenarioLog, "scenario-log", "", "append the deterministic per-round scenario schedule (JSONL) to this file; byte-identical across runs at the same seed, unlike -event-log (needs -scenario)")
	fs.BoolVar(&c.negotiate, "negotiate", false, negoHelp+"; assignments travel in the Select broadcast and join the session checkpoint")
	fs.StringVar(&c.assignLog, "assign-log", "", "append the deterministic per-round codec assignments (JSONL, sorted by client id) to this file; byte-identical across replays, like -scenario-log (needs -negotiate)")
	return c
}

// config completes the parsed flags into the server's config. It reads
// the scenario file but binds no socket and opens nothing for writing.
func (c *syncCmd) config() (rpc.ServerConfig, error) {
	cfg := c.cfg
	if cfg.Cfg.K <= 0 {
		cfg.Cfg.K = (cfg.NumClients + 1) / 2
	}
	var err error
	// The held-out split. Clients derive their shards from the same seed,
	// so data never crosses the network — exactly as in FL.
	if _, cfg.Test, err = c.task.Split(); err != nil {
		return cfg, err
	}
	cfg.NewModel = c.task.NewModel()
	cfg.Cfg.ScaleRatiosForModel(cfg.NewModel().NumParams())
	if c.negotiate {
		cfg.Negotiation = negotiation()
	} else if c.assignLog != "" {
		return cfg, errors.New("-assign-log needs -negotiate")
	}
	if c.scenario == "" {
		if c.scenarioLog != "" {
			return cfg, errors.New("-scenario-log needs -scenario")
		}
		return cfg, nil
	}
	sc, err := scenario.Load(c.scenario)
	if err != nil {
		return cfg, err
	}
	fleet, err := scenario.NewFleet(sc, cfg.NumClients)
	if err != nil {
		return cfg, err
	}
	// Energy accounting assumes flclient's default -steps/-batch; the
	// transmit drain uses the real per-update wire bytes regardless.
	fleet.SetRoundWork(cfg.NewModel().FLOPsPerSample(), 4*16)
	cfg.Scenario = fleet
	return cfg, nil
}

func (c *syncCmd) Run() error {
	cfg, err := c.config()
	if err != nil {
		return err
	}
	var stop func()
	if cfg.Metrics, cfg.Events, stop, err = openObs(*c.metricsAddr, *c.eventLog, "flserver"); err != nil {
		return err
	}
	defer stop()
	if c.assignLog != "" {
		w, closeLog, err := appendLog(c.assignLog)
		if err != nil {
			return fmt.Errorf("assign log: %w", err)
		}
		defer closeLog()
		cfg.AssignLog = w
	}
	if c.scenarioLog != "" {
		w, closeLog, err := appendLog(c.scenarioLog)
		if err != nil {
			return fmt.Errorf("scenario log: %w", err)
		}
		defer closeLog()
		cfg.ScenarioLog = w
	}
	srv, err := rpc.NewServer(cfg)
	if err != nil {
		return err
	}
	log.Printf("flserver: listening on %s, waiting for %d clients", srv.Addr(), cfg.NumClients)
	res, err := srv.Run()
	if err != nil {
		return err
	}
	resumed := ""
	if res.ResumedFrom >= 0 {
		resumed = fmt.Sprintf("  (resumed at round %d)", res.ResumedFrom+1)
	}
	fmt.Printf("final accuracy: %.3f  uplink: %.1f KB  rounds: %d  evictions: %d  quarantined: %d%s%s\n",
		res.FinalAcc, float64(res.BytesReceived)/1e3, len(res.Rounds), res.Evictions, len(res.Quarantines),
		map[bool]string{true: "  (ended early: roster below min-clients)"}[res.EndedEarly], resumed)
	return nil
}

// negotiation is what -negotiate turns on: the default switch ratio,
// level bounds and doubling schedule, which no run has ever changed.
func negotiation() core.NegotiationConfig {
	nc := core.DefaultNegotiation()
	nc.Enabled = true
	return nc
}

// openObs starts the optional metrics server and opens the optional event
// log; stop releases both and is set whenever err is nil.
func openObs(metricsAddr, eventLog, who string) (*obs.Registry, *obs.EventLog, func(), error) {
	metrics, stopMetrics, err := cli.OpenMetrics(metricsAddr, who)
	if err != nil {
		return nil, nil, nil, err
	}
	events, closeEvents, err := cli.OpenEventLog(eventLog, who)
	if err != nil {
		stopMetrics()
		return nil, nil, nil, err
	}
	return metrics, events, func() { closeEvents(); stopMetrics() }, nil
}

// appendLog opens one of the deterministic JSONL logs for appending; the
// returned close logs a failure.
func appendLog(path string) (io.Writer, func(), error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() {
		if err := f.Close(); err != nil {
			log.Printf("flserver: close %s: %v", path, err)
		}
	}, nil
}

// asyncCmd is flserver async: one Manager-owned listener multiplexing one
// or more buffered-asynchronous sessions. The flags every session shares
// are bound to the AsyncConfig they all start from.
type asyncCmd struct {
	cfg                   session.AsyncConfig
	addr, sessions        string
	task                  cli.Task
	metricsAddr, eventLog *string
}

func newAsync(fs *flag.FlagSet) cli.Runner {
	c := &asyncCmd{cfg: session.AsyncConfig{EvalEvery: 1, Logf: log.Printf}}
	fs.StringVar(&c.addr, "addr", ":7070", "listen address")
	fs.StringVar(&c.sessions, "sessions", "", "comma-separated session names multiplexed over the one listener, each an independent engine; empty runs the single \"default\" session")
	fs.IntVar(&c.cfg.MaxClients, "clients", 3, "admission cap per session")
	fs.IntVar(&c.cfg.Versions, "versions", 30, "model-version budget per session")
	fs.IntVar(&c.cfg.K, "buffer-k", 0, "buffer size: accepted pushes per model-version apply (default max(clients/2, 1))")
	fs.IntVar(&c.cfg.MaxStaleness, "max-staleness", 0, "reject pushes whose base model is more than this many versions behind the global (0 accepts any staleness; slow clients are never evicted)")
	fs.Float64Var(&c.cfg.Eta, "eta", 1, "server learning rate applied to the weighted buffer mean")
	fs.Float64Var(&c.cfg.MaxUpdateNorm, "max-update-norm", 10, normHelp)
	c.task.Register(fs)
	fs.StringVar(&c.cfg.CheckpointDir, "checkpoint-dir", "", ckptHelp+"; with several sessions each keeps its snapshot in a subdirectory named after it")
	fs.BoolVar(&c.cfg.Resume, "resume", false, resumeHelp)
	c.metricsAddr = cli.MetricsFlag(fs)
	c.eventLog = cli.EventLogFlag(fs)
	return c
}

// configs completes the parsed flags into one AsyncConfig per session.
// It binds no socket and opens no file.
func (c *asyncCmd) configs() ([]session.AsyncConfig, error) {
	names := []string{session.DefaultSession}
	if c.sessions != "" {
		names = nil
		for _, n := range strings.Split(c.sessions, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, errors.New("-sessions named no sessions")
		}
	}
	base := c.cfg
	if base.K <= 0 {
		base.K = (base.MaxClients + 1) / 2
	}
	var err error
	if _, base.Test, err = c.task.Split(); err != nil {
		return nil, err
	}
	base.NewModel = c.task.NewModel()
	cfgs := make([]session.AsyncConfig, len(names))
	for i, name := range names {
		cfgs[i] = base
		cfgs[i].Name = name
		// Each session keeps its own snapshot so the doctor can audit them
		// independently; a single session keeps the bare path.
		if base.CheckpointDir != "" && len(names) > 1 {
			cfgs[i].CheckpointDir = filepath.Join(base.CheckpointDir, name)
		}
	}
	return cfgs, nil
}

func (c *asyncCmd) Run() error {
	cfgs, err := c.configs()
	if err != nil {
		return err
	}
	metrics, stopMetrics, err := cli.OpenMetrics(*c.metricsAddr, "flserver async")
	if err != nil {
		return err
	}
	defer stopMetrics()
	m, err := session.NewManager(session.Config{Addr: c.addr, Logf: log.Printf})
	if err != nil {
		return err
	}
	defer m.Close()

	engines := make([]*session.AsyncSession, len(cfgs))
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		// Like the snapshots, each session's events go to a log of their own.
		path := *c.eventLog
		if path != "" && len(cfgs) > 1 {
			path += "." + cfg.Name
		}
		events, closeEvents, err := cli.OpenEventLog(path, "flserver async")
		if err != nil {
			return err
		}
		defer closeEvents()
		cfg.Metrics, cfg.Events = metrics, events
		a, err := session.NewAsync(cfg)
		if err != nil {
			return fmt.Errorf("session %q: %w", cfg.Name, err)
		}
		if err := m.Register(cfg.Name, a); err != nil {
			return fmt.Errorf("session %q: %w", cfg.Name, err)
		}
		engines[i], names[i] = a, cfg.Name
	}
	go m.Serve()
	log.Printf("flserver async: sessions %v on %s (K=%d, budget %d versions each)",
		names, m.Addr(), cfgs[0].K, cfgs[0].Versions)

	results := make([]*session.AsyncResult, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, a := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = a.Run()
		}()
	}
	wg.Wait()
	failed := 0
	for i, cfg := range cfgs {
		if errs[i] != nil {
			log.Printf("flserver async: session %q: %v", cfg.Name, errs[i])
			failed++
			continue
		}
		res := results[i]
		resumed := ""
		if res.ResumedFrom >= 0 {
			resumed = fmt.Sprintf("  (resumed at version %d)", res.ResumedFrom)
		}
		fmt.Printf("session %s: versions=%d acc=%.3f pushes=%d stale-rejected=%d quarantined=%d evictions=%d uplink=%.1fKB%s\n",
			cfg.Name, res.Versions, res.FinalAcc, res.Pushes, res.StaleRejected,
			len(res.Quarantines), res.Evictions, float64(res.BytesReceived)/1e3, resumed)
		fmt.Printf("session %s: staleness histogram %s\n", cfg.Name, stalenessLine(res.StalenessCounts))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", failed, len(cfgs))
	}
	return nil
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

// rootCmd is flserver root: the top of the two-tier tree. Every flag but
// the observability pair is a RootConfig field.
type rootCmd struct {
	cfg                   edge.RootConfig
	metricsAddr, eventLog *string
}

func newRoot(fs *flag.FlagSet) cli.Runner {
	c := &rootCmd{cfg: edge.RootConfig{Logf: log.Printf}}
	fs.StringVar(&c.cfg.ClientAddr, "addr", ":7070", "client bootstrap listen address: clients dial here and are rerouted to their edge")
	fs.StringVar(&c.cfg.EdgeAddr, "edge-addr", ":7071", "edge-facing listen address")
	fs.IntVar(&c.cfg.NumEdges, "edges", 2, "edge roster size the session waits for")
	fs.IntVar(&c.cfg.Clients, "clients", 3, clientsHelp)
	fs.IntVar(&c.cfg.Rounds, "rounds", 30, "aggregation rounds")
	fs.IntVar(&c.cfg.Dim, "dim", 20000, "model dimension (every edge must be given the same)")
	fs.DurationVar(&c.cfg.HeartbeatTimeout, "heartbeat-timeout", edge.DefaultHeartbeatTimeout, "silence window after which a registered edge is declared dead and its clients rerouted")
	fs.StringVar(&c.cfg.CheckpointDir, "checkpoint-dir", "", ckptHelp)
	fs.BoolVar(&c.cfg.Resume, "resume", false, resumeHelp)
	c.metricsAddr = cli.MetricsFlag(fs)
	c.eventLog = cli.EventLogFlag(fs)
	return c
}

func (c *rootCmd) Run() error {
	cfg := c.cfg
	var stop func()
	var err error
	if cfg.Metrics, cfg.Events, stop, err = openObs(*c.metricsAddr, *c.eventLog, "flserver root"); err != nil {
		return err
	}
	defer stop()
	r, err := edge.NewRoot(cfg)
	if err != nil {
		return err
	}
	log.Printf("flserver root: edges at %s, client bootstrap at %s, waiting for %d edges / %d clients",
		r.EdgeAddr(), r.BootstrapAddr(), cfg.NumEdges, cfg.Clients)
	res, err := r.Run()
	if err != nil {
		return err
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
	return nil
}

// edgeCmd is flserver edge: one regional aggregator. Every flag but
// -negotiate and the observability pair is an EdgeConfig field.
type edgeCmd struct {
	cfg                   edge.EdgeConfig
	negotiate             bool
	metricsAddr, eventLog *string
}

func newEdge(fs *flag.FlagSet) cli.Runner {
	c := &edgeCmd{cfg: edge.EdgeConfig{Logf: log.Printf}}
	fs.StringVar(&c.cfg.ClientAddr, "addr", "", "client-facing listen address (empty binds an ephemeral loopback port; the root learns it from the edge hello)")
	fs.StringVar(&c.cfg.RootAddr, "root-addr", "", "the root's edge-facing address to dial (required)")
	fs.IntVar(&c.cfg.ID, "id", 0, "unique edge identity (the root merges partials in ascending edge ID)")
	fs.IntVar(&c.cfg.Dim, "dim", 20000, "model dimension (must match the root's)")
	fs.Float64Var(&c.cfg.MaxUpdateNorm, "max-update-norm", 10, normHelp)
	fs.DurationVar(&c.cfg.HeartbeatInterval, "heartbeat-interval", edge.DefaultHeartbeatInterval, "liveness ping cadence to the root (client-count changes are pushed at once)")
	fs.IntVar(&c.cfg.MaxRetries, "retries", 10, "consecutive failed root redials before giving up (full-jitter backoff; the budget resets on progress)")
	fs.Uint64Var(&c.cfg.Seed, "seed", 1, "redial jitter seed")
	fs.BoolVar(&c.negotiate, "negotiate", false, negoHelp+" (heaviest senders get the deepest compression)")
	c.metricsAddr = cli.MetricsFlag(fs)
	c.eventLog = cli.EventLogFlag(fs)
	return c
}

// config completes the parsed flags into the edge's config; it binds no
// socket.
func (c *edgeCmd) config() (edge.EdgeConfig, error) {
	cfg := c.cfg
	if cfg.RootAddr == "" {
		return cfg, errors.New("-root-addr is required")
	}
	if c.negotiate {
		cfg.Negotiation = negotiation()
	}
	return cfg, nil
}

func (c *edgeCmd) Run() error {
	cfg, err := c.config()
	if err != nil {
		return err
	}
	var stop func()
	if cfg.Metrics, cfg.Events, stop, err = openObs(*c.metricsAddr, *c.eventLog, "flserver edge"); err != nil {
		return err
	}
	defer stop()
	e, err := edge.NewEdge(cfg)
	if err != nil {
		return err
	}
	log.Printf("flserver edge %d: clients at %s, root at %s", cfg.ID, e.ClientAddr(), cfg.RootAddr)
	res, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Printf("edge %d: %d rounds  folded %d  quarantined %d  peak clients %d\n",
		cfg.ID, res.Rounds, res.Folded, res.Quarantined, res.PeakClients)
	return nil
}

// doctorCmd is flserver doctor: an offline checkpoint/event-log audit.
type doctorCmd struct{ dir, events string }

func newDoctor(fs *flag.FlagSet) cli.Runner {
	c := &doctorCmd{}
	fs.StringVar(&c.dir, "checkpoint-dir", "", "checkpoint directory to audit (a sync server's, an async session's or a root's; required)")
	fs.StringVar(&c.events, "event-log", "", "JSONL event log to cross-check against the checkpoint (optional)")
	return c
}

func (c *doctorCmd) Run() error {
	if c.dir == "" {
		return errors.New("-checkpoint-dir is required")
	}
	rep, err := session.Doctor(c.dir, c.events, os.Stdout)
	if err != nil {
		return err
	}
	if !rep.Healthy() {
		return fmt.Errorf("%d problems found", len(rep.Problems))
	}
	return nil
}
