// Command flclient runs one AdaFL federation client over TCP.
//
// The client synthesises its data shard locally from the shared seed (the
// same non-IID partition the server expects), trains on its own device,
// scores its updates, and uploads only when selected — with the
// compression ratio the server assigned. Use -upbps with -throttle to
// emulate a constrained embedded uplink on a real socket.
//
// flclient async instead cycles pull→train→push against an flserver async
// session with no round barrier; -session picks a named session on a
// multi-session server.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"adafl/cmd/internal/cli"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
)

var commands = []cli.Command{
	{Summary: "a synchronous client of flserver: train, score, upload when selected", Flags: func(fs *flag.FlagSet) cli.Runner { return newClient(fs, false) }},
	{Name: "async", Summary: "a buffered-asynchronous client of flserver async: pull, train, push with no round barrier", Flags: func(fs *flag.FlagSet) cli.Runner { return newClient(fs, true) }},
}

func main() { cli.Main("flclient", commands) }

// clientCmd is either subcommand. The flags that map one to one onto a
// ClientConfig field are bound to it; the async loop never reads the
// reported downlink or a scenario, so flclient async does not take them.
type clientCmd struct {
	cfg         rpc.ClientConfig
	clients     int
	iid         bool
	task        cli.Task
	scenario    string
	metricsAddr *string
	fault       *rpc.FaultFlags
}

func newClient(fs *flag.FlagSet, async bool) *clientCmd {
	c := &clientCmd{cfg: rpc.ClientConfig{Async: async, Momentum: 0.9}}
	fs.StringVar(&c.cfg.Addr, "addr", "localhost:7070", "server address")
	fs.IntVar(&c.cfg.ID, "id", 0, "client id (0-based, unique)")
	fs.IntVar(&c.clients, "clients", 3, "total federation size (server and clients must agree)")
	c.task.Register(fs)
	fs.BoolVar(&c.iid, "iid", false, "IID partition instead of 2-shard non-IID")
	fs.Float64Var(&c.cfg.UpBps, "upbps", 2.5e6, "uplink bandwidth in B/s: reported into the utility score, and the -throttle rate")
	fs.BoolVar(&c.cfg.ThrottleUplink, "throttle", false, "actually rate-limit the uplink socket to -upbps")
	fs.IntVar(&c.cfg.LocalSteps, "steps", 4, "local SGD steps per round")
	fs.IntVar(&c.cfg.BatchSize, "batch", 16, "batch size")
	fs.Float64Var(&c.cfg.LR, "lr", 0.1, "learning rate")
	fs.IntVar(&c.cfg.MaxRetries, "retries", 3, "consecutive failed redial attempts tolerated (budget resets once a connection makes progress)")
	fs.DurationVar(&c.cfg.RetryBackoff, "retry-backoff", 200*time.Millisecond, "initial redial backoff window; doubles per attempt, each wait drawn uniformly from it (full jitter)")
	c.metricsAddr = cli.MetricsFlag(fs)
	c.fault = rpc.RegisterFaultFlags(fs)
	if async {
		fs.StringVar(&c.cfg.Codec, "codec", "", "uplink codec: topk (default), dgc, dadaquant, qsgd, terngrad or identity")
		fs.StringVar(&c.cfg.Session, "session", "", "named session to join on a multi-session server (empty joins the default session)")
		fs.Float64Var(&c.cfg.AsyncRatio, "async-ratio", 1, "uplink compression ratio (1 sends the exact delta)")
	} else {
		fs.StringVar(&c.cfg.Codec, "codec", "", "uplink codec: dgc (default), dadaquant, qsgd, terngrad, topk or identity; a negotiated server assignment overrides it per round")
		fs.Float64Var(&c.cfg.DownBps, "downbps", 5e6, "downlink bandwidth reported into the utility score (B/s)")
		fs.StringVar(&c.scenario, "scenario", "", "declarative scenario file (must match the server's): shapes this client's reported bandwidth per round by its device class and the scenario's bandwidth trace")
	}
	return c
}

// config completes the parsed flags into the client's config: its shard
// of the shared partition, the model, the codec settings. It reads the
// scenario file but dials nothing.
func (c *clientCmd) config() (rpc.ClientConfig, error) {
	cfg := c.cfg
	if cfg.ID < 0 || cfg.ID >= c.clients {
		return cfg, fmt.Errorf("id %d out of range [0, %d)", cfg.ID, c.clients)
	}
	// Rebuild the shared partition and keep only this client's shard.
	train, _, err := c.task.Split()
	if err != nil {
		return cfg, err
	}
	seed := c.task.Seed
	if c.iid {
		cfg.Data = dataset.PartitionIID(train, c.clients, seed+2)[cfg.ID]
	} else {
		cfg.Data = dataset.PartitionShards(train, c.clients, 2, seed+2)[cfg.ID]
	}
	cfg.NewModel = c.task.NewModel()
	def := core.DefaultConfig()
	cfg.Utility = def.Utility
	cfg.DGCMomentum, cfg.DGCClip, cfg.DGCMsgClip = def.DGCMomentum, def.DGCClip, def.DGCMsgClip
	cfg.Seed = seed + 100 + uint64(cfg.ID)
	cfg.Fault = c.fault.Config()
	if c.scenario == "" {
		return cfg, nil
	}
	// Under a scenario the reported bandwidth becomes a pure function of
	// the round index — the same function the server's fleet evaluates, so
	// both sides agree without exchanging link state.
	sc, err := scenario.Load(c.scenario)
	if err != nil {
		return cfg, err
	}
	fleet, err := scenario.NewFleet(sc, c.clients)
	if err != nil {
		return cfg, err
	}
	id, up, down := cfg.ID, cfg.UpBps, cfg.DownBps
	cfg.Bandwidth = func(round int) (float64, float64) {
		return fleet.LinkBandwidth(id, round, up, down)
	}
	log.Printf("flclient %d: scenario %q, class %s", id, sc.Name, fleet.ClassName(id))
	return cfg, nil
}

func (c *clientCmd) Run() error {
	cfg, err := c.config()
	if err != nil {
		return err
	}
	metrics, stop, err := cli.OpenMetrics(*c.metricsAddr, fmt.Sprintf("flclient %d", cfg.ID))
	if err != nil {
		return err
	}
	defer stop()
	cfg.Metrics = metrics
	log.Printf("flclient %d: %d local samples, dialing %s", cfg.ID, cfg.Data.Len(), cfg.Addr)
	res, err := rpc.RunClient(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("client %d: rounds=%d uploads=%d sent=%.1fKB reconnects=%d\n",
		cfg.ID, res.Rounds, res.Uploads, float64(res.BytesSent)/1e3, res.Reconnects)
	return nil
}
