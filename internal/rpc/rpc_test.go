package rpc

import (
	"net"
	"sort"
	"sync"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/scenario"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

func quiet(string, ...interface{}) {}

func TestConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
	done := make(chan *Envelope, 1)
	go func() {
		e, err := cb.Recv()
		if err != nil {
			t.Error(err)
		}
		done <- e
	}()
	want := &Envelope{Type: MsgScore, ClientID: 3, Round: 7, Score: 0.75}
	if err := ca.Send(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.Type != want.Type || got.ClientID != 3 || got.Round != 7 || got.Score != 0.75 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if ca.BytesSent() == 0 || cb.BytesReceived() == 0 {
		t.Fatal("byte counters not advancing")
	}
	ca.Close()
	cb.Close()
}

func TestConnSparsePayload(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewBinaryConn(a, nil), NewBinaryConn(b, nil)
	defer ca.Close()
	defer cb.Close()
	go func() {
		ca.Send(&Envelope{Type: MsgUpdate, Update: sparseFixture()})
	}()
	e, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e.Update == nil || e.Update.Dim != 4 || e.Update.Values[1] != -2 {
		t.Fatalf("sparse payload corrupted: %+v", e.Update)
	}
}

func sparseFixture() *compress.Sparse {
	return &compress.Sparse{Dim: 4, Indices: []int32{0, 2}, Values: []float64{1, -2}}
}

// TestEndToEndSession runs a real server and three client goroutines over
// localhost TCP and verifies the federation learns.
func TestEndToEndSession(t *testing.T) {
	const clients = 3
	seed := uint64(5)
	ds := dataset.SynthMNIST(600, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{32}, 10, stats.NewRNG(seed+3))
	}

	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 2
	cfg.ScaleRatiosForModel(9000)
	cfg.K = 2

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients, Rounds: 12,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 4, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientResults := make([]*ClientResult, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunClient(ClientConfig{
				Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				LocalSteps: 3, BatchSize: 16, LR: 0.1, Momentum: 0.9,
				Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
				DGCClip: 10, DGCMsgClip: 2, Seed: seed + uint64(i),
				Logf: quiet,
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			clientResults[i] = res
		}()
	}

	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(res.Rounds) != 12 {
		t.Fatalf("rounds recorded %d", len(res.Rounds))
	}
	if res.FinalAcc < 0.4 {
		t.Fatalf("distributed session did not learn: acc %.3f", res.FinalAcc)
	}
	if res.BytesReceived == 0 {
		t.Fatal("no uplink bytes")
	}
	for i, cr := range clientResults {
		if cr == nil {
			t.Fatalf("client %d produced no result", i)
		}
		if cr.Rounds != 12 {
			t.Errorf("client %d saw %d rounds", i, cr.Rounds)
		}
		if cr.Uploads == 0 || cr.Uploads > 12 {
			t.Errorf("client %d uploads %d", i, cr.Uploads)
		}
		if cr.BytesSent == 0 {
			t.Errorf("client %d sent no bytes", i)
		}
	}
	// Selection must have withheld some uploads post-warmup (K=2 of 3).
	totalUploads := 0
	for _, cr := range clientResults {
		totalUploads += cr.Uploads
	}
	if totalUploads >= clients*12 {
		t.Fatalf("no uploads withheld: %d", totalUploads)
	}
}

// TestServerChecksEachUpdateOnce pins the sync server's ingest at one
// compress.Sparse.Check per received update: the tree checks each update
// once as it arrives, and neither the fold nor the barrier's norm gate
// checks it again.
func TestServerChecksEachUpdateOnce(t *testing.T) {
	const clients, rounds = 3, 5
	seed := uint64(7)
	ds := dataset.SynthMNIST(300, 16, seed)
	train, _ := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 1
	cfg.ScaleRatiosForModel(4500)
	cfg.K = 2
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients, Rounds: rounds,
		Cfg: cfg, NewModel: newModel, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := compress.CheckCalls()
	var wg sync.WaitGroup
	uploads := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunClient(ClientConfig{
				Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				LocalSteps: 1, BatchSize: 16, LR: 0.1,
				Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
				Seed: seed + uint64(i), Logf: quiet,
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			uploads[i] = res.Uploads
		}()
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checks := compress.CheckCalls() - before
	received, sent := 0, 0
	for _, r := range res.Rounds {
		received += r.Received + r.Quarantined
	}
	for _, u := range uploads {
		sent += u
	}
	if received == 0 || received != sent {
		t.Fatalf("server received %d updates, clients sent %d", received, sent)
	}
	if checks != int64(received) {
		t.Fatalf("%d checks for %d received updates, want one each", checks, received)
	}
}

// TestThrottledClientStillWorks exercises a paced link end to end with a
// generous rate so the test stays fast.
func TestThrottledClientStillWorks(t *testing.T) {
	seed := uint64(9)
	ds := dataset.SynthMNIST(200, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{16}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 1
	cfg.ScaleRatiosForModel(5000)
	cfg.K = 1

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 3,
		Cfg: cfg, NewModel: newModel, Test: test, EvalEvery: 3, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(ClientConfig{
			Addr: srv.Addr(), ID: 0, Data: train, NewModel: newModel,
			LocalSteps: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9,
			Utility: cfg.Utility, Fault: &FaultConfig{Link: &netsim.Link{UpBps: 5e6, DownBps: 5e6}},
			DGCClip: 10, DGCMsgClip: 2, Seed: seed,
			Logf: quiet,
		})
		done <- err
	}()
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("zero clients/rounds accepted")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: 2, Rounds: 1, MinClients: 3}); err == nil {
		t.Fatal("MinClients > NumClients accepted")
	}
}

// TestWireDecisionMatchesSimulator is the differential pin on the one
// round decision: the simulator's SyncPlanner.Plan and the planner
// NewServer wires, handed a roster's reported scores the way runRound
// hands them over (ascending ids), see the same scores, selection
// history, ĝ and scenario, and must pick the same clients at the same
// ratios and negotiate the same (codec, ratio, levels) round after round —
// through warm-up, ranked rounds, a zero ĝ and the τ-starvation fallback,
// under diurnal.json's availability gate, battery score multipliers and
// bandwidth trace.
func TestWireDecisionMatchesSimulator(t *testing.T) {
	const n, rounds = 8, 8
	env := newChaosEnv(n, 480, 12, 8, 5)
	fed := fl.NewFederation(env.parts, env.test, netsim.UniformNetwork(n, netsim.WiFiLink, 6),
		env.newModel, fl.TrainConfig{LocalSteps: 1, BatchSize: 8, LR: 0.1}, 7)
	sc, err := scenario.Load("../../examples/scenarios/diurnal.json")
	if err != nil {
		t.Fatal(err)
	}
	newFleet := func() *scenario.Fleet {
		f, err := scenario.NewFleet(sc, n)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	negCfg := core.DefaultNegotiation()
	negCfg.Enabled = true

	ranked := env.cfg
	// One warm-up round: diurnal.json's battery clients drain out of
	// availability by round 2, so round 1 is the ranked round their
	// multipliers reorder.
	ranked.K, ranked.ExploreFrac = 4, 0.25
	ranked.Compression.WarmupRounds = 1
	starved := ranked
	starved.Tau, starved.ExploreFrac = 0.999, 0

	var gated, dimmed, quantized bool
	for name, cfg := range map[string]core.Config{"ranked": ranked, "starved": starved} {
		simFleet, wireFleet := newFleet(), newFleet()
		sp := core.NewSyncPlanner(cfg)
		if sp.Negotiator, err = core.NewNegotiator(negCfg, cfg.Compression); err != nil {
			t.Fatal(err)
		}
		sp.Eligible, sp.ScoreMult = simFleet.Available, simFleet.ScoreMult
		sp.BandwidthMult = func(_, round int) float64 { return simFleet.TraceMult(round) }
		e := fl.NewSyncEngine(fed, fl.FedAvg{}, sp, 8)
		srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds,
			Cfg: cfg, NewModel: env.newModel, Logf: quiet, Scenario: wireFleet, Negotiation: negCfg})
		if err != nil {
			t.Fatal(err)
		}
		srv.listener.Close()

		rng := stats.NewRNG(9)
		for round := 0; round < rounds; round++ {
			simFleet.BeginRound(round)
			wireFleet.BeginRound(round)
			// Fresh ĝ and cached deltas every round so the ranking moves;
			// round 5 sees a model that did not move.
			for i := range e.LastGlobalDelta {
				e.LastGlobalDelta[i] = rng.Norm()
				if round == 5 {
					e.LastGlobalDelta[i] = 0
				}
			}
			reported := map[int]float64{}
			eligible := 0
			for i, c := range fed.Clients {
				c.LastDelta = make([]float64, len(e.Global))
				for j := range c.LastDelta {
					c.LastDelta[j] = rng.Norm()
				}
				up, down := fed.Net.Bandwidths(i, e.Now())
				reported[i] = cfg.Utility.Score(up, down, c.LastDelta, e.LastGlobalDelta)
				if wireFleet.Available(i) {
					eligible++
				} else {
					gated = true
				}
				if m := wireFleet.ScoreMult(i); m > 0 && m < 1 && round >= cfg.Compression.WarmupRounds {
					dimmed = true
				}
			}
			ids := make([]int, 0, len(reported))
			for id := range reported {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			scores := make([]float64, len(ids))
			for k, id := range ids {
				scores[k] = reported[id]
			}
			wire := srv.planner.Decide(round, ids, scores, tensor.IsZero(e.LastGlobalDelta))
			sim := sp.Plan(round, e)

			if len(sim) != len(wire.Picks) || len(sim) == 0 {
				t.Fatalf("%s round %d: simulator planned %d clients, wire %d", name, round, len(sim), len(wire.Picks))
			}
			for k, p := range sim {
				w := wire.Picks[k]
				a, ok := wire.Assign[w.Client]
				codec, levels := core.CodecDGC, 0
				if dq, isDQ := p.Codec.(*compress.DAdaQuant); isDQ {
					codec, levels = core.CodecDAdaQuant, dq.Levels()
					quantized = true
				}
				if p.Client != w.Client || !ok || p.Ratio != a.Ratio || codec != a.Codec || levels != a.Levels {
					t.Fatalf("%s round %d rank %d: simulator client %d (%s, ratio %v, %d levels), wire client %d (%+v, assigned %v)",
						name, round, k, p.Client, codec, p.Ratio, levels, w.Client, a, ok)
				}
				if !wireFleet.Available(p.Client) {
					t.Fatalf("%s round %d: client %d planned while the scenario has it offline", name, round, p.Client)
				}
				if srv.planner.LastSel()[p.Client] != round {
					t.Fatalf("%s round %d: wire did not record client %d as selected", name, round, p.Client)
				}
				// Both sides see the same battery drain and byte history.
				simFleet.Account(p.Client, 1, 10_000)
				wireFleet.Account(p.Client, 1, 10_000)
				sp.Negotiator.RecordUpload(p.Client, 1000+97*p.Client)
				srv.neg.RecordUpload(p.Client, 1000+97*p.Client)
			}
			want := min(cfg.K, eligible)
			if round < cfg.Compression.WarmupRounds || round == 5 || name == "starved" {
				want = eligible
			}
			if len(sim) != want {
				t.Fatalf("%s round %d: planned %d of %d eligible clients, want %d", name, round, len(sim), eligible, want)
			}
		}
	}
	if !gated || !dimmed || !quantized {
		t.Fatalf("the scenario left a path unexercised: gated %v, battery-scaled %v, quantized %v", gated, dimmed, quantized)
	}
}

// TestUtilityScoreSeriesMatchesSimulator: over one roster, rounds 0–7 of
// which two are warm-up, the wire server's planner (handed scores every
// round, warm-up included, as its clients report them) and the
// simulator's (which scores nobody in a warm-up round) record the same
// number of adafl_utility_score observations: the ranked rounds'.
func TestUtilityScoreSeriesMatchesSimulator(t *testing.T) {
	const n, rounds = 6, 8
	env := newChaosEnv(n, 360, 12, 8, 5)
	fed := fl.NewFederation(env.parts, env.test, netsim.UniformNetwork(n, netsim.WiFiLink, 6),
		env.newModel, fl.TrainConfig{LocalSteps: 1, BatchSize: 8, LR: 0.1}, 7)
	cfg := env.cfg // two warm-up rounds
	simReg, wireReg := obs.NewRegistry(), obs.NewRegistry()
	sp := core.NewSyncPlanner(cfg)
	sp.Metrics = simReg
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, sp, 8)
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds,
		Cfg: cfg, NewModel: env.newModel, Logf: quiet, Metrics: wireReg})
	if err != nil {
		t.Fatal(err)
	}
	srv.listener.Close()

	rng := stats.NewRNG(3)
	for round := 0; round < rounds; round++ {
		for i := range e.LastGlobalDelta {
			e.LastGlobalDelta[i] = rng.Norm()
		}
		ids := make([]int, n)
		scores := make([]float64, n)
		for i, c := range fed.Clients {
			c.LastDelta = make([]float64, len(e.Global))
			for j := range c.LastDelta {
				c.LastDelta[j] = rng.Norm()
			}
			up, down := fed.Net.Bandwidths(i, e.Now())
			ids[i], scores[i] = i, cfg.Utility.Score(up, down, c.LastDelta, e.LastGlobalDelta)
		}
		srv.planner.Decide(round, ids, scores, false)
		sp.Plan(round, e)
	}
	sim := simReg.Histogram("adafl_utility_score", obs.ScoreBuckets).Count()
	wire := wireReg.Histogram("adafl_utility_score", obs.ScoreBuckets).Count()
	if want := int64(n * (rounds - cfg.Compression.WarmupRounds)); sim != want || wire != want {
		t.Errorf("adafl_utility_score counts: simulator %d, wire %d; want %d each", sim, wire, want)
	}
}
