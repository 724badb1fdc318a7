package rpc

import (
	"net"
	"sync"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
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

// TestThrottledClientStillWorks exercises the token-bucket path end to end
// with a generous rate so the test stays fast.
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
			Utility: cfg.Utility, UpBps: 5e6, DownBps: 5e6,
			ThrottleUplink: true,
			DGCClip:        10, DGCMsgClip: 2, Seed: seed,
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

// TestPlanRoundMatchesSyncPlanner is the differential pin on the one
// selection rule: the simulator's planner and the wire server's planRound,
// fed the same roster, scores, selection history and ĝ, pick the same
// clients at the same ratios round after round — through warm-up, ranked
// rounds, a zero ĝ and the τ-starvation fallback. A client the scenario
// gate holds out (Eligible false in the simulator, absent from the wire's
// score set) is planned by neither, on any of those paths.
func TestPlanRoundMatchesSyncPlanner(t *testing.T) {
	const n, heldOut = 6, 2
	env := newChaosEnv(n, 360, 12, 8, 5)
	fed := fl.NewFederation(env.parts, env.test, netsim.UniformNetwork(n, netsim.WiFiLink, 6),
		env.newModel, fl.TrainConfig{LocalSteps: 1, BatchSize: 8, LR: 0.1}, 7)

	ranked := core.DefaultConfig()
	ranked.K = 4
	ranked.Compression.WarmupRounds = 2
	starved := ranked
	starved.Tau, starved.ExploreFrac = 0.999, 0

	for name, cfg := range map[string]core.Config{"ranked": ranked, "starved": starved} {
		sp := core.NewSyncPlanner(cfg)
		sp.Eligible = func(i int) bool { return i != heldOut }
		e := fl.NewSyncEngine(fed, fl.FedAvg{}, sp, 8)
		rng := stats.NewRNG(9)
		lastSel := map[int]int{}
		for round := 0; round < 8; round++ {
			// Fresh ĝ and cached deltas every round so the ranking moves;
			// round 5 sees a model that did not move.
			for i := range e.LastGlobalDelta {
				e.LastGlobalDelta[i] = rng.Norm()
				if round == 5 {
					e.LastGlobalDelta[i] = 0
				}
			}
			scores := map[int]float64{}
			for i, c := range fed.Clients {
				c.LastDelta = make([]float64, len(e.Global))
				for j := range c.LastDelta {
					c.LastDelta[j] = rng.Norm()
				}
				if i == heldOut {
					continue
				}
				up, down := fed.Net.Bandwidths(i, e.Now())
				scores[i] = cfg.Utility.Score(up, down, c.LastDelta, e.LastGlobalDelta)
			}
			wire := planRound(cfg, round, scores, lastSel, tensor.IsZero(e.LastGlobalDelta))
			sim := sp.Plan(round, e)
			if len(sim) != len(wire) || len(sim) == 0 {
				t.Fatalf("%s round %d: simulator planned %d clients, wire %d", name, round, len(sim), len(wire))
			}
			for _, p := range sim {
				if p.Client == heldOut {
					t.Fatalf("%s round %d: held-out client planned", name, round)
				}
				if ratio, ok := wire[p.Client]; !ok || ratio != p.Ratio {
					t.Fatalf("%s round %d: client %d at ratio %v in the simulator, %v (selected %v) on the wire",
						name, round, p.Client, p.Ratio, ratio, ok)
				}
				if lastSel[p.Client] != round {
					t.Fatalf("%s round %d: wire did not record client %d as selected", name, round, p.Client)
				}
			}
			full := round < cfg.Compression.WarmupRounds || round == 5 || name == "starved"
			if full != (len(sim) == n-1) {
				t.Fatalf("%s round %d: planned %d of %d eligible clients", name, round, len(sim), n-1)
			}
		}
	}
}
