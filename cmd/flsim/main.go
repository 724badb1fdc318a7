// Command flsim runs a single configurable federated-learning simulation
// and reports the learning curve, communication cost, and selection
// behaviour — the general-purpose entry point for exploring the library
// without writing Go.
//
// Examples:
//
//	flsim -method adafl -dist noniid -clients 10 -rounds 60
//	flsim -method fedavg -rate 0.5 -clients 20 -dist iid
//	flsim -method fedasync -async -horizon 60 -dist noniid
//	flsim -method adafl -async -horizon 60 -csv run.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"adafl/cmd/internal/cli"
	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/scenario"
	"adafl/internal/stats"
	"adafl/internal/trace"
)

// applyCodec fixes every client's uplink codec to the named one, each
// client with its own instance (and, for the stochastic codecs, its own
// RNG stream derived from the experiment seed).
func applyCodec(fed *fl.Federation, name string, cfg core.Config, seed uint64) {
	for i, c := range fed.Clients {
		rng := stats.NewRNG(seed + 0x9e3779b97f4a7c15*uint64(i+1))
		switch name {
		case "dgc":
			c.Codec = &compress.DGC{Momentum: cfg.DGCMomentum, ClipNorm: cfg.DGCClip, MsgClipFactor: cfg.DGCMsgClip}
		case "dadaquant":
			c.Codec = compress.NewDAdaQuant(15, 63, 8, rng)
		case "qsgd":
			c.Codec = compress.NewQSGD(15, rng)
		case "terngrad":
			c.Codec = compress.NewTernGrad(rng)
		case "topk":
			c.Codec = &compress.TopK{}
		case "identity":
			c.Codec = compress.Identity{}
		default:
			log.Fatalf("flsim: unknown codec %q", name)
		}
	}
}

func main() {
	method := flag.String("method", "adafl", "fedavg|fedadam|fedprox|scaffold|adafl (sync) / fedasync|fedbuff|fedat|adafl (-async)")
	async := flag.Bool("async", false, "use the asynchronous protocol")
	dist := flag.String("dist", "noniid", "iid|noniid (2-shard)")
	clients := flag.Int("clients", 10, "federation size")
	rounds := flag.Int("rounds", 60, "synchronous rounds")
	horizon := flag.Float64("horizon", 40, "asynchronous simulated-time budget (s)")
	rate := flag.Float64("rate", 0.5, "baseline participation rate")
	samples := flag.Int("samples", 1500, "synthetic dataset size")
	imgSize := flag.Int("imgsize", 16, "image edge length")
	seed := flag.Uint64("seed", 11, "experiment seed")
	csvPath := flag.String("csv", "", "write the run history as CSV to this path")
	tracePath := flag.String("trace", "", "bandwidth trace CSV (time,multiplier per line) applied to every odd-indexed client")
	scenarioPath := flag.String("scenario", "", "declarative scenario file (energy model, churn, device classes); drives device profiles, availability and bandwidth for the whole run (sync methods only)")
	scenarioLog := flag.String("scenario-log", "", "append the deterministic per-round scenario schedule (JSONL) to this file; empty writes it nowhere")
	codecName := flag.String("codec", "", "fix every client's uplink codec: dgc, dadaquant, qsgd, terngrad, topk or identity (empty keeps the method default; adafl defaults to dgc)")
	negotiate := flag.Bool("negotiate", false, "adafl sync only: negotiate each selected client's codec+ratio per round from observed uplink bytes and the scenario's bandwidth (overrides -codec per round)")
	linkName := flag.String("link", "wifi", "base link preset: "+netsim.PresetNames)
	flag.Parse()

	var fleet *scenario.Fleet
	if *scenarioPath != "" {
		if *async {
			log.Fatal("flsim: -scenario drives the synchronous round loop; drop -async")
		}
		sc, err := scenario.Load(*scenarioPath)
		if err != nil {
			log.Fatalf("flsim: %v", err)
		}
		var err2 error
		fleet, err2 = scenario.NewFleet(sc, *clients)
		if err2 != nil {
			log.Fatalf("flsim: %v", err2)
		}
	}

	iid := *dist == "iid"
	task := cli.Task{Seed: *seed, ImgSize: *imgSize, Samples: *samples}
	train, test, err := task.Split()
	if err != nil {
		log.Fatalf("flsim: %v", err)
	}
	parts, err := task.Partition(train, *clients, iid)
	if err != nil {
		log.Fatalf("flsim: %v", err)
	}
	size := *imgSize
	modelSeed := *seed + 4
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, size, size}, []int{32}, 10, stats.NewRNG(modelSeed))
	}
	baseLink, err := netsim.Preset(*linkName)
	if err != nil {
		log.Fatalf("flsim: -link: %v", err)
	}
	net := netsim.UniformNetwork(*clients, baseLink, *seed+3)
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := netsim.ParseTraceCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		for i := 1; i < *clients; i += 2 {
			l := net.Link(i)
			l.Trace = tr
			net.SetLink(i, l)
		}
	}
	trainCfg := fl.TrainConfig{LocalSteps: 4, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	fed := fl.NewFederation(parts, test, net, newModel, trainCfg, *seed+5)
	if fleet != nil {
		// The scenario owns device profiles, link speeds and traces.
		fleet.ConfigureFederation(fed)
		fleet.SetRoundWork(newModel().FLOPsPerSample(), trainCfg.LocalSteps*trainCfg.BatchSize)
	} else {
		for _, c := range fed.Clients {
			c.Device = c.Device.Scaled(0.002) // paper-cadence pacing, see DESIGN.md
		}
	}

	adaCfg := core.DefaultConfig()
	adaCfg.ScaleRatiosForModel(newModel().NumParams())

	var hist *fl.History
	var upBytes int64
	var updates int

	if !*async {
		var agg fl.Aggregator = fl.FedAvg{}
		var planner fl.RoundPlanner = fl.NewFixedRatePlanner(*rate, 1, *seed+8)
		var negotiator *core.Negotiator
		switch *method {
		case "fedavg":
		case "fedadam":
			agg = fl.NewFedAdam(0.02)
		case "fedprox":
			for _, c := range fed.Clients {
				c.Cfg.ProxMu = 0.01
			}
		case "scaffold":
			for _, c := range fed.Clients {
				c.Cfg.Scaffold = true
				c.Cfg.Momentum = 0
			}
			agg = fl.NewScaffold(1, *clients)
		case "adafl":
			adaCfg.AttachDGC(fed)
			sp := core.NewSyncPlanner(adaCfg)
			if *negotiate {
				neg, err := core.NewNegotiator(core.DefaultNegotiation(), adaCfg.Compression)
				if err != nil {
					log.Fatalf("flsim: %v", err)
				}
				sp.Negotiator = neg
				sp.NegotiationSeed = *seed + 9
				negotiator = neg
				if fleet != nil {
					sp.BandwidthMult = func(_, round int) float64 { return fleet.TraceMult(round) }
				}
			}
			planner = sp
		default:
			log.Fatalf("unknown sync method %q", *method)
		}
		if *codecName != "" {
			applyCodec(fed, *codecName, adaCfg, *seed)
		}
		if fleet != nil {
			if sp, ok := planner.(*core.SyncPlanner); ok {
				sp.Eligible = fleet.Available
				sp.ScoreMult = fleet.ScoreMult
			}
			wrapped := &scenario.Planner{Fleet: fleet, Inner: planner}
			if *scenarioLog != "" {
				lf, err := os.Create(*scenarioLog)
				if err != nil {
					log.Fatal(err)
				}
				defer lf.Close()
				wrapped.Log = lf
			}
			planner = wrapped
		}
		e := fl.NewSyncEngine(fed, agg, planner, *seed+6)
		e.EvalEvery = 5
		if negotiator != nil {
			// Feed the negotiator the accepted uploads' wire bytes so its
			// byte-pressure term has real observations.
			e.OnUpload = negotiator.RecordUpload
		}
		e.RunRounds(*rounds)
		hist, upBytes, updates = &e.Hist, e.TotalUplinkBytes(), e.TotalUpdates()
	} else {
		switch *method {
		case "fedasync":
			e := fl.NewAsyncEngine(fed, fl.FedAsync{Alpha: 0.5, Decay: 0.5}, fl.AlwaysUpload{})
			e.EvalInterval = 5
			e.Run(*horizon)
			hist, upBytes, updates = &e.Hist, e.TotalUplinkBytes(), e.TotalUpdates()
		case "fedbuff":
			e := fl.NewAsyncEngine(fed, fl.NewFedBuff(3, 1), fl.AlwaysUpload{})
			e.EvalInterval = 5
			e.Run(*horizon)
			hist, upBytes, updates = &e.Hist, e.TotalUplinkBytes(), e.TotalUpdates()
		case "fedat":
			e := fl.NewFedATEngine(fed, 3, 0.5)
			e.EvalInterval = 5
			e.Run(*horizon)
			hist, upBytes = &e.Hist, e.TotalUplinkBytes()
			updates = hist.TotalUpdates()
		case "adafl":
			adaCfg.AttachDGC(fed)
			gate := core.NewAsyncGate(adaCfg)
			e := fl.NewAsyncEngine(fed,
				core.AsyncApply{Alpha: adaCfg.AsyncAlpha, Anchor: adaCfg.AsyncAnchor, Decay: adaCfg.AsyncDecay}, gate)
			e.EvalInterval = 5
			e.Run(*horizon)
			hist, upBytes, updates = &e.Hist, e.TotalUplinkBytes(), e.TotalUpdates()
		default:
			log.Fatalf("unknown async method %q", *method)
		}
	}

	// Render the learning curve.
	xlabel := "round"
	if *async {
		xlabel = "time (s)"
	}
	fig := trace.NewFigure(fmt.Sprintf("%s (%s, %d clients)", *method, *dist, *clients), xlabel, "accuracy")
	s := fig.AddSeries(*method)
	for _, r := range hist.Rows {
		if r.TestAcc == r.TestAcc {
			x := float64(r.Round)
			if *async {
				x = r.Time
			}
			s.Add(x, r.TestAcc)
		}
	}
	fig.RenderASCII(os.Stdout, 64, 12)
	fmt.Printf("\nfinal acc %.1f%%  best %.1f%%  uplink %.1f KB  updates %d\n",
		100*hist.FinalAcc(), 100*hist.BestAcc(), float64(upBytes)/1e3, updates)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := hist.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("history written to %s\n", *csvPath)
	}
}
