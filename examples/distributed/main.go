// Distributed: the full AdaFL protocol over real TCP sockets inside one
// process — a server goroutine plus four client goroutines, one of them
// paced on an embedded-class uplink. Demonstrates the rpc package the
// cmd/flserver and cmd/flclient binaries are built on.
package main

import (
	"fmt"
	"log"
	"sync"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/rpc"
	"adafl/internal/stats"
)

const (
	numClients = 4
	rounds     = 25
	seed       = 17
)

func main() {
	// Shared task setup: every party derives its data from the seed, so
	// only model traffic crosses the sockets.
	ds := dataset.SynthMNIST(1200, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionShards(train, numClients, 2, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{32}, 10, stats.NewRNG(seed+3))
	}

	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.Compression.WarmupRounds = 3
	cfg.ScaleRatiosForModel(newModel().NumParams())

	srv, err := rpc.NewServer(rpc.ServerConfig{
		Addr: "127.0.0.1:0", NumClients: numClients, Rounds: rounds,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 3,
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server listening on %s\n", srv.Addr())

	var wg sync.WaitGroup
	results := make([]*rpc.ClientResult, numClients)
	for i := 0; i < numClients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ccfg := rpc.ClientConfig{
				Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				LocalSteps: 4, BatchSize: 16, LR: 0.1, Momentum: 0.9,
				Utility: cfg.Utility, UpBps: 2.5e6, DownBps: 5e6,
				DGCClip: cfg.DGCClip, DGCMsgClip: cfg.DGCMsgClip,
				Seed: seed + 100 + uint64(i),
				Logf: func(string, ...interface{}) {},
			}
			if i == numClients-1 {
				// The last client is a genuinely constrained device: its
				// socket is paced on an LTE link with a 256 KB/s uplink.
				link := netsim.LTELink
				link.UpBps = 256e3
				ccfg.Fault = &rpc.FaultConfig{Link: &link}
			}
			res, err := rpc.RunClient(ccfg)
			if err != nil {
				log.Printf("client %d: %v", i, err)
				return
			}
			results[i] = res
		}()
	}

	srvRes, err := srv.Run()
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("\nfinal accuracy: %.1f%%  total uplink: %.1f KB over %d rounds\n",
		100*srvRes.FinalAcc, float64(srvRes.BytesReceived)/1e3, len(srvRes.Rounds))
	for i, r := range results {
		if r == nil {
			continue
		}
		tag := ""
		if i == numClients-1 {
			tag = " (paced, 256 KB/s up)"
		}
		fmt.Printf("client %d%s: uploaded %d of %d rounds, %.1f KB on the wire\n",
			i, tag, r.Uploads, r.Rounds, float64(r.BytesSent)/1e3)
	}
}
