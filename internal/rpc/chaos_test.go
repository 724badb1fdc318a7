package rpc

import (
	"sync"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// chaosEnv is the shared scaffolding for full-session fault-injection
// tests: a synthetic task partitioned across clients, plus base configs
// that individual tests specialise with faults.
type chaosEnv struct {
	seed     uint64
	clients  int
	parts    []*dataset.Dataset
	test     *dataset.Dataset
	newModel func() *nn.Model
	cfg      core.Config
}

func newChaosEnv(clients, samples, imgSize, hidden int, seed uint64) *chaosEnv {
	ds := dataset.SynthMNIST(samples, imgSize, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, imgSize, imgSize}, []int{hidden}, 10, stats.NewRNG(seed+3))
	}
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 2
	cfg.ScaleRatiosForModel(newModel().NumParams())
	cfg.K = clients - 1
	if cfg.K < 1 {
		cfg.K = 1
	}
	return &chaosEnv{seed: seed, clients: clients, parts: parts, test: test, newModel: newModel, cfg: cfg}
}

func (e *chaosEnv) serverConfig(rounds int) ServerConfig {
	return ServerConfig{
		Addr: "127.0.0.1:0", NumClients: e.clients, Rounds: rounds,
		Cfg: e.cfg, NewModel: e.newModel, Test: e.test, EvalEvery: 1, Logf: quiet,
		StragglerTimeout: time.Second,
	}
}

func (e *chaosEnv) clientConfig(i int, addr string) ClientConfig {
	return ClientConfig{
		Addr: addr, ID: i, Data: e.parts[i], NewModel: e.newModel,
		LocalSteps: 3, BatchSize: 16, LR: 0.1, Momentum: 0.9,
		Utility: e.cfg.Utility, UpBps: 1e6, DownBps: 1e6,
		DGCClip: 10, DGCMsgClip: 2, Seed: e.seed + 50 + uint64(i),
		Logf: quiet,
	}
}

// runClients launches one goroutine per config and returns results and
// errors indexed by position after all clients exit.
func runClients(cfgs []ClientConfig) ([]*ClientResult, []error) {
	results := make([]*ClientResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		i, cfg := i, cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunClient(cfg)
		}()
	}
	wg.Wait()
	return results, errs
}

// waitForClient blocks until id is registered (pending or live) or the
// timeout expires. Called from OnRound to make re-join timing
// deterministic.
func waitForClient(t *testing.T, srv *Server, id int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if srv.roster.Peer(id) != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("client %d never re-registered", id)
}

// TestChaosStragglerAndDeathPartialAggregation is the acceptance
// scenario: of four clients, one is killed mid-round by a mid-message
// cut and another is partitioned past StragglerTimeout. The server must
// finish every configured round with partial aggregation (Received <
// Selected rather than an abort), evict both offenders, re-admit the
// partitioned one once the link heals, and land within tolerance of a
// fault-free run — the repo's analogue of the paper's Figure 1 study.
func TestChaosStragglerAndDeathPartialAggregation(t *testing.T) {
	const rounds = 12
	env := newChaosEnv(4, 600, 16, 32, 11)

	// Fault-free baseline for the accuracy comparison.
	cleanSrv, err := NewServer(env.serverConfig(rounds))
	if err != nil {
		t.Fatal(err)
	}
	var cleanCfgs []ClientConfig
	for i := 0; i < 4; i++ {
		cleanCfgs = append(cleanCfgs, env.clientConfig(i, cleanSrv.Addr()))
	}
	cleanDone := make(chan struct{})
	go func() { runClients(cleanCfgs); close(cleanDone) }()
	cleanRes, err := cleanSrv.Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	<-cleanDone

	// Chaos run. OnRound runs synchronously inside Run, after srv is
	// assigned, so the closure can use it directly.
	gate := NewGate(true)
	scfg := env.serverConfig(rounds)
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		switch rec.Round {
		case 3:
			gate.Set(false) // partition client 2 for rounds 5-6
		case 5:
			gate.Open()
		case 6:
			// Hold the round boundary until client 2's re-Hello lands so
			// its re-admission is deterministic.
			waitForClient(t, srv, 2, 10*time.Second)
		}
	}
	srv, err = NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := make([]ClientConfig, 4)
	for i := 0; i < 4; i++ {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	// Client 2: partitioned mid-session; allowed to reconnect.
	cfgs[2].Fault = &FaultConfig{Partition: gate}
	cfgs[2].MaxRetries = 10
	cfgs[2].RetryBackoff = 25 * time.Millisecond
	// Client 3: link hard-cut mid-message, in the second warmup upload;
	// no retries, so it stays dead. Every client uploads the whole model
	// in a warmup round, and next to that frame the hello and the score
	// reports are a few dozen bytes. The frame is charged 4 B per
	// parameter (WireBytes) and codes to about 0.8 of that, so one and a
	// half charges land inside the second.
	warmup := compress.Identity{}.Encode(make([]float64, env.newModel().NumParams()), 1)
	upload := int64(4 + envHeaderBytes + warmup.WireBytes())
	cfgs[3].Fault = &FaultConfig{CutAfterBytes: upload + upload/2}

	type clientOut struct {
		res  []*ClientResult
		errs []error
	}
	outCh := make(chan clientOut, 1)
	go func() {
		res, errs := runClients(cfgs)
		outCh <- clientOut{res, errs}
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("chaos run aborted: %v", err)
	}
	out := <-outCh

	if len(res.Rounds) != rounds {
		t.Fatalf("chaos run completed %d/%d rounds", len(res.Rounds), rounds)
	}
	if res.EndedEarly {
		t.Fatal("chaos run flagged EndedEarly despite healthy majority")
	}
	if res.Evictions < 2 {
		t.Fatalf("evictions = %d, want >= 2 (cut client + partitioned straggler)", res.Evictions)
	}
	partial := false
	for _, rec := range res.Rounds {
		if rec.Received < rec.Selected {
			partial = true
		}
	}
	if !partial {
		t.Fatal("no round reported Received < Selected under injected faults")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Clients != 3 {
		t.Fatalf("final roster = %d, want 3 (client 2 back, client 3 dead)", last.Clients)
	}
	// Healthy clients and the rejoined straggler end via clean shutdown.
	for _, i := range []int{0, 1, 2} {
		if out.errs[i] != nil {
			t.Errorf("client %d: %v", i, out.errs[i])
		}
	}
	if out.res[2] == nil || out.res[2].Reconnects == 0 {
		t.Error("partitioned client never reconnected")
	}
	if out.errs[3] == nil {
		t.Error("cut client unexpectedly survived")
	}
	// Resilience claim: dropout + straggling costs bounded accuracy.
	if res.FinalAcc < 0.3 {
		t.Fatalf("chaos run did not learn: acc %.3f", res.FinalAcc)
	}
	if res.FinalAcc < cleanRes.FinalAcc-0.3 {
		t.Fatalf("chaos acc %.3f too far below clean acc %.3f", res.FinalAcc, cleanRes.FinalAcc)
	}
}

// TestChaosLatencyJitterAllSurvive: moderate injected latency and jitter
// below the straggler deadline must cause zero evictions.
func TestChaosLatencyJitterAllSurvive(t *testing.T) {
	env := newChaosEnv(3, 240, 12, 16, 21)
	scfg := env.serverConfig(5)
	scfg.StragglerTimeout = 2 * time.Second
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 3)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
		cfgs[i].Fault = &FaultConfig{Link: &netsim.Link{UpBps: 1e6, DownBps: 1e6, LatencyS: 0.015, JitterS: 0.025}}
	}
	outCh := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		outCh <- errs
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, cerr := range <-outCh {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}
	if res.Evictions != 0 {
		t.Fatalf("slow-but-alive clients were evicted: %d", res.Evictions)
	}
	if len(res.Rounds) != 5 {
		t.Fatalf("completed %d/5 rounds", len(res.Rounds))
	}
	for _, rec := range res.Rounds {
		if rec.Received != rec.Selected {
			t.Fatalf("round %d: received %d of %d despite no deadline misses", rec.Round, rec.Received, rec.Selected)
		}
	}
}

// TestChaosBandwidthCappedClientSurvives: a client squeezed through a
// narrow paced uplink still makes the deadline and is never evicted, and
// its uploads really were squeezed: everything it sent took at least
// bytes/rate. (A token bucket that starts each idle second with a second
// of credit lets this client's few-KB updates through unshaped.)
func TestChaosBandwidthCappedClientSurvives(t *testing.T) {
	env := newChaosEnv(3, 240, 12, 16, 31)
	scfg := env.serverConfig(4)
	scfg.StragglerTimeout = 3 * time.Second
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 3)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	const rate = 50_000 // an embedded uplink, B/s
	cfgs[2].Fault = &FaultConfig{Link: &netsim.Link{UpBps: rate, DownBps: 1e6}}
	type out struct {
		res  []*ClientResult
		errs []error
		took time.Duration
	}
	outCh := make(chan out, 1)
	go func() {
		start := time.Now()
		r, e := runClients(cfgs)
		outCh <- out{r, e, time.Since(start)}
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	o := <-outCh
	for i, cerr := range o.errs {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}
	if res.Evictions != 0 {
		t.Fatalf("bandwidth-capped client evicted: %d evictions", res.Evictions)
	}
	capped := o.res[2]
	if capped == nil || capped.Uploads == 0 {
		t.Fatalf("capped client uploaded nothing: %+v", capped)
	}
	if floor := time.Duration(float64(capped.BytesSent) / rate * float64(time.Second)); o.took < floor {
		t.Fatalf("capped client sent %d B in %v, faster than %v at %d B/s", capped.BytesSent, o.took, floor, rate)
	}
	t.Logf("capped client: %d uploads, %d B in %v", capped.Uploads, capped.BytesSent, o.took)
}

// TestChaosProbabilisticDropEvictsAndRecovers: a lossy link that randomly
// kills the connection forces evictions, but reconnect keeps the client
// in the session and the server completes every round regardless.
func TestChaosProbabilisticDropEvictsAndRecovers(t *testing.T) {
	env := newChaosEnv(3, 240, 12, 16, 41)
	const rounds = 10
	scfg := env.serverConfig(rounds)
	// Quorum from the stable clients only: the preamble and the hello are
	// separate transfers, each rolling the loss dice, so the lossy client may
	// need arbitrarily many redials before a Hello lands — quorum must
	// not hang on it.
	scfg.NumClients = 2
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 3)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	// MaxRetries bounds *consecutive* failures, so a modest budget
	// tolerates many drops across the session yet gives up quickly once
	// the server is gone and every redial is refused.
	cfgs[1].Fault = &FaultConfig{Link: &netsim.Link{UpBps: 1e6, DownBps: 1e6, LossProb: 0.35}}
	cfgs[1].MaxRetries = 6
	cfgs[1].RetryBackoff = 10 * time.Millisecond
	type out struct {
		res  []*ClientResult
		errs []error
	}
	outCh := make(chan out, 1)
	go func() {
		r, e := runClients(cfgs)
		outCh <- out{r, e}
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("server aborted under drop faults: %v", err)
	}
	o := <-outCh
	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Rounds), rounds)
	}
	// The lossy client must have died at least once, seen either as a
	// server-side eviction or a client-side reconnect.
	reconnects := 0
	if o.res[1] != nil {
		reconnects = o.res[1].Reconnects
	}
	if res.Evictions == 0 && reconnects == 0 {
		t.Fatal("drop fault produced neither evictions nor reconnects")
	}
	// The stable clients are untouched.
	for _, i := range []int{0, 2} {
		if o.errs[i] != nil {
			t.Errorf("client %d: %v", i, o.errs[i])
		}
	}
}

// TestChaosLateJoinerAfterPartitionHeals: a client partitioned from the
// start misses quorum, joins when the link heals, and participates in the
// remaining rounds.
func TestChaosLateJoinerAfterPartitionHeals(t *testing.T) {
	env := newChaosEnv(4, 320, 12, 16, 51)
	const rounds = 8
	gate := NewGate(false)
	scfg := env.serverConfig(rounds)
	scfg.NumClients = 3 // quorum without the partitioned client
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		switch rec.Round {
		case 1:
			gate.Open()
		case 2:
			waitForClient(t, srv, 3, 10*time.Second)
		}
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 4)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	cfgs[3].Fault = &FaultConfig{Partition: gate}
	cfgs[3].MaxRetries = 10
	cfgs[3].RetryBackoff = 25 * time.Millisecond
	type out struct {
		res  []*ClientResult
		errs []error
	}
	outCh := make(chan out, 1)
	go func() {
		r, e := runClients(cfgs)
		outCh <- out{r, e}
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	o := <-outCh
	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Rounds), rounds)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Clients != 4 {
		t.Fatalf("late joiner absent from final roster: %d clients", last.Clients)
	}
	if o.errs[3] != nil {
		t.Errorf("late joiner: %v", o.errs[3])
	}
	if o.res[3] == nil || o.res[3].Rounds == 0 {
		t.Error("late joiner never participated in a round")
	}
}

// TestChaosMinClientsFloorEndsSessionCleanly: when the roster falls below
// MinClients the session stops with a partial result and no error.
func TestChaosMinClientsFloorEndsSessionCleanly(t *testing.T) {
	env := newChaosEnv(2, 160, 12, 16, 61)
	scfg := env.serverConfig(6)
	scfg.MinClients = 2
	scfg.StragglerTimeout = 500 * time.Millisecond
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, 2)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	// Dies early, in its second warm-up upload (each about 7.8 KB), and
	// stays dead.
	cfgs[1].Fault = &FaultConfig{CutAfterBytes: 12_000}
	outCh := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		outCh <- errs
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("below-floor session must end cleanly, got %v", err)
	}
	<-outCh
	if !res.EndedEarly {
		t.Fatal("session not flagged EndedEarly")
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if len(res.Rounds) == 0 || len(res.Rounds) >= 6 {
		t.Fatalf("rounds completed = %d, want partial progress", len(res.Rounds))
	}
}
