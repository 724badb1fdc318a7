// Command flclient runs one AdaFL federation client over TCP.
//
// The client synthesises its data shard locally from the shared seed (the
// same non-IID partition the server expects), trains on its own device,
// scores its updates, and uploads only when selected — with the
// compression ratio the server assigned. Use -upbps with -throttle to
// emulate a constrained embedded uplink on a real socket.
//
// With -async the client instead cycles pull→train→push against an
// flserver -async session with no round barrier; -session picks a named
// session on a multi-session server.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
	"adafl/internal/stats"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "server address")
	id := flag.Int("id", 0, "client id (0-based, unique)")
	clients := flag.Int("clients", 3, "total federation size (must match server)")
	seed := flag.Uint64("seed", 1, "shared experiment seed (must match server)")
	imgSize := flag.Int("imgsize", 16, "synthetic image size (must match server)")
	samples := flag.Int("samples", 2000, "total synthetic samples (must match server)")
	iid := flag.Bool("iid", false, "IID partition instead of 2-shard non-IID")
	upbps := flag.Float64("upbps", 2.5e6, "uplink bandwidth reported into the utility score (B/s)")
	downbps := flag.Float64("downbps", 5e6, "downlink bandwidth reported into the utility score (B/s)")
	throttle := flag.Bool("throttle", false, "actually rate-limit the uplink socket to -upbps")
	steps := flag.Int("steps", 4, "local SGD steps per round")
	batch := flag.Int("batch", 16, "batch size")
	lr := flag.Float64("lr", 0.1, "learning rate")
	retries := flag.Int("retries", 3, "consecutive failed redial attempts tolerated (budget resets once a connection makes progress)")
	backoff := flag.Duration("retry-backoff", 200*time.Millisecond, "initial redial backoff window; doubles per attempt, each wait drawn uniformly from it (full jitter)")
	metricsAddr := flag.String("metrics-addr", "", "listen address for the debug HTTP server (/metrics, /healthz, /debug/pprof); empty disables it")
	codec := flag.String("codec", "", "uplink codec: dgc, dadaquant, qsgd, terngrad, topk or identity (default dgc in sync mode, topk in async mode); a negotiated server assignment overrides it per round")
	async := flag.Bool("async", false, "buffered-asynchronous mode: cycle pull→train→push with no round barrier against an flserver -async session")
	sessionName := flag.String("session", "", "named session to join on a multi-session server (empty joins the default session)")
	asyncRatio := flag.Float64("async-ratio", 1, "async mode: uplink compression ratio (1 sends the exact delta)")
	scenarioPath := flag.String("scenario", "", "declarative scenario file (must match the server's): shapes this client's reported bandwidth per round by its device class and the scenario's bandwidth trace")
	faults := rpc.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()

	if *id < 0 || *id >= *clients {
		log.Fatalf("flclient: id %d out of range [0, %d)", *id, *clients)
	}

	// Rebuild the shared partition and keep only this client's shard.
	ds := dataset.SynthMNIST(*samples, *imgSize, *seed)
	train, _ := ds.Split(0.8, *seed+1)
	var parts []*dataset.Dataset
	if *iid {
		parts = dataset.PartitionIID(train, *clients, *seed+2)
	} else {
		parts = dataset.PartitionShards(train, *clients, 2, *seed+2)
	}
	shard := parts[*id]

	size := *imgSize
	modelSeed := *seed + 3
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, size, size}, []int{32}, 10, stats.NewRNG(modelSeed))
	}
	cfg := core.DefaultConfig()

	var metrics *obs.Registry
	if *metricsAddr != "" {
		metrics = obs.NewRegistry()
		dbg, err := obs.NewDebugServer(*metricsAddr, metrics)
		if err != nil {
			log.Fatalf("flclient %d: metrics server: %v", *id, err)
		}
		defer dbg.Close()
		log.Printf("flclient %d: metrics at http://%s/metrics", *id, dbg.Addr())
	}

	// Under a scenario the reported bandwidth becomes a pure function of
	// the round index — the same function the server's fleet evaluates, so
	// both sides agree without exchanging link state.
	var bandwidth func(round int) (float64, float64)
	if *scenarioPath != "" {
		sc, err := scenario.Load(*scenarioPath)
		if err != nil {
			log.Fatalf("flclient %d: %v", *id, err)
		}
		fleet, err := scenario.NewFleet(sc, *clients)
		if err != nil {
			log.Fatalf("flclient %d: %v", *id, err)
		}
		clientID, up, down := *id, *upbps, *downbps
		bandwidth = func(round int) (float64, float64) {
			return fleet.LinkBandwidth(clientID, round, up, down)
		}
		log.Printf("flclient %d: scenario %q, class %s", *id, sc.Name, fleet.ClassName(*id))
	}

	log.Printf("flclient %d: %d local samples, dialing %s", *id, shard.Len(), *addr)
	res, err := rpc.RunClient(rpc.ClientConfig{
		Addr: *addr, ID: *id, Data: shard, NewModel: newModel,
		Async: *async, AsyncRatio: *asyncRatio, Session: *sessionName,
		LocalSteps: *steps, BatchSize: *batch, LR: *lr, Momentum: 0.9,
		Utility: cfg.Utility, UpBps: *upbps, DownBps: *downbps,
		Bandwidth:      bandwidth,
		ThrottleUplink: *throttle,
		Codec:          *codec,
		DGCMomentum:    cfg.DGCMomentum, DGCClip: cfg.DGCClip, DGCMsgClip: cfg.DGCMsgClip,
		Seed:       *seed + 100 + uint64(*id),
		MaxRetries: *retries, RetryBackoff: *backoff,
		Fault: faults.Config(), Metrics: metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client %d: rounds=%d uploads=%d sent=%.1fKB reconnects=%d\n",
		*id, res.Rounds, res.Uploads, float64(res.BytesSent)/1e3, res.Reconnects)
}
