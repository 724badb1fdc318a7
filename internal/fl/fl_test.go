package fl

import (
	"math"
	"strings"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/dataset"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// newTestFederation builds a small, fast federation: synthetic MNIST 16×16,
// an image MLP, IID partition over numClients, uniform WiFi-class links.
func newTestFederation(numClients int, iid bool, seed uint64) *Federation {
	ds := dataset.SynthMNIST(800, 16, seed)
	train, test := ds.Split(0.8, seed+1)
	var parts []*dataset.Dataset
	if iid {
		parts = dataset.PartitionIID(train, numClients, seed+2)
	} else {
		parts = dataset.PartitionShards(train, numClients, 2, seed+2)
	}
	net := netsim.UniformNetwork(numClients, netsim.WiFiLink, seed+3)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 16, 16}, []int{32}, 10, stats.NewRNG(seed+4))
	}
	cfg := TrainConfig{LocalSteps: 4, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	return NewFederation(parts, test, net, newModel, cfg, seed+5)
}

func TestFederationWeightsSumToOne(t *testing.T) {
	f := newTestFederation(5, true, 1)
	sum := 0.0
	for _, w := range f.Weights() {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestClientTrainRoundProducesDelta(t *testing.T) {
	f := newTestFederation(3, true, 2)
	c := f.Clients[0]
	global := f.NewModel().ParamVector()
	delta, ctrl := c.TrainRound(global, nil)
	if ctrl != nil {
		t.Fatal("non-scaffold client returned control delta")
	}
	if norm(delta) == 0 {
		t.Fatal("training produced zero delta")
	}
	if &c.LastDelta[0] != &delta[0] {
		t.Fatal("LastDelta not cached")
	}
	// Local model must equal global + delta.
	local := c.Model.ParamVector()
	for i := range local {
		if math.Abs(local[i]-global[i]-delta[i]) > 1e-12 {
			t.Fatal("delta inconsistent with local model")
		}
	}
}

func TestFedProxShrinksDelta(t *testing.T) {
	seed := uint64(3)
	plain := newTestFederation(1, true, seed)
	prox := newTestFederation(1, true, seed)
	prox.Clients[0].Cfg.ProxMu = 1.0 // heavy proximal pull
	global := plain.NewModel().ParamVector()
	dPlain, _ := plain.Clients[0].TrainRound(global, nil)
	dProx, _ := prox.Clients[0].TrainRound(global, nil)
	if norm(dProx) >= norm(dPlain) {
		t.Fatalf("proximal term did not shrink delta: %v vs %v", norm(dProx), norm(dPlain))
	}
}

// TestFedProxTermStartsAtZero: the proximal anchor is the global as the
// float32 model loaded it, so with a global off the float32 grid the first
// step's correction is exactly 0 and one local step ignores µ entirely.
func TestFedProxTermStartsAtZero(t *testing.T) {
	seed := uint64(5)
	plain := newTestFederation(1, true, seed)
	prox := newTestFederation(1, true, seed)
	plain.Clients[0].Cfg.LocalSteps = 1
	prox.Clients[0].Cfg.LocalSteps = 1
	prox.Clients[0].Cfg.ProxMu = 1000
	global := plain.NewModel().ParamVector()
	r := stats.NewRNG(seed)
	for i := range global {
		global[i] += r.NormScaled(0, 1e-3) // lands between float32 values
	}
	dPlain, _ := plain.Clients[0].TrainRound(global, nil)
	dProx, _ := prox.Clients[0].TrainRound(global, nil)
	for i := range dPlain {
		if math.Float64bits(dPlain[i]) != math.Float64bits(dProx[i]) {
			t.Fatalf("delta[%d] %v with µ vs %v without: the first proximal term is not 0", i, dProx[i], dPlain[i])
		}
	}
}

func TestScaffoldControlVariates(t *testing.T) {
	f := newTestFederation(2, false, 4)
	for _, c := range f.Clients {
		c.Cfg.Scaffold = true
	}
	c := f.Clients[0]
	global := f.NewModel().ParamVector()
	serverC := make([]float64, len(global))
	delta, ctrl := c.TrainRound(global, serverC)
	if ctrl == nil {
		t.Fatal("scaffold client returned nil control delta")
	}
	if norm(c.Ctrl) == 0 {
		t.Fatal("client control variate not updated")
	}
	// c_i⁺ = −Δ/(K·η) when starting from c_i = c = 0.
	scale := 1 / (float64(c.Cfg.LocalSteps) * c.Cfg.LR)
	for i := range delta {
		want := -delta[i] * scale
		if math.Abs(c.Ctrl[i]-want) > 1e-9 {
			t.Fatalf("control variate mismatch at %d: %v vs %v", i, c.Ctrl[i], want)
		}
	}
}

func TestTrainConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("prox+scaffold accepted")
		}
	}()
	TrainConfig{LocalSteps: 1, BatchSize: 1, LR: 0.1, ProxMu: 0.1, Scaffold: true}.Validate()
}

func TestFedAvgKnownValues(t *testing.T) {
	global := []float64{0, 0}
	updates := []Update{
		{Delta: compress.NewSparseDense([]float64{1, 0}), Weight: 0.75},
		{Delta: compress.NewSparseDense([]float64{0, 1}), Weight: 0.25},
	}
	FedAvg{}.Apply(global, updates)
	if math.Abs(global[0]-0.75) > 1e-12 || math.Abs(global[1]-0.25) > 1e-12 {
		t.Fatalf("FedAvg result %v", global)
	}
}

func TestFedAvgEmptyRoundNoChange(t *testing.T) {
	global := []float64{1, 2}
	FedAvg{}.Apply(global, nil)
	if global[0] != 1 || global[1] != 2 {
		t.Fatal("empty aggregation changed model")
	}
}

func TestFedAdamMovesAlongDelta(t *testing.T) {
	agg := NewFedAdam(0.1)
	global := []float64{0, 0}
	updates := []Update{{Delta: compress.NewSparseDense([]float64{1, -1}), Weight: 1}}
	agg.Apply(global, updates)
	if global[0] <= 0 || global[1] >= 0 {
		t.Fatalf("FedAdam moved wrong direction: %v", global)
	}
}

func TestScaffoldAggregatorUpdatesC(t *testing.T) {
	agg := NewScaffold(1, 4)
	global := []float64{0, 0}
	updates := []Update{
		{Delta: compress.NewSparseDense([]float64{2, 0}), Weight: 0.5, CtrlDelta: []float64{1, 1}},
		{Delta: compress.NewSparseDense([]float64{0, 2}), Weight: 0.5, CtrlDelta: []float64{1, -1}},
	}
	agg.Apply(global, updates)
	// Unweighted mean of deltas: (1, 1).
	if math.Abs(global[0]-1) > 1e-12 || math.Abs(global[1]-1) > 1e-12 {
		t.Fatalf("scaffold global %v", global)
	}
	// c += |S|/N · mean(Δc) = (2/4)·(1, 0) = (0.5, 0).
	c := agg.C(2)
	if math.Abs(c[0]-0.5) > 1e-12 || math.Abs(c[1]) > 1e-12 {
		t.Fatalf("scaffold c %v", c)
	}
}

func TestFedAsyncStalenessWeight(t *testing.T) {
	f := FedAsync{Alpha: 0.6, Decay: 0.5}
	if w := f.StalenessWeight(0); math.Abs(w-0.6) > 1e-12 {
		t.Fatalf("fresh weight %v", w)
	}
	if f.StalenessWeight(3) >= f.StalenessWeight(1) {
		t.Fatal("staleness weight not decreasing")
	}
	nodecay := FedAsync{Alpha: 0.6}
	if nodecay.StalenessWeight(10) != 0.6 {
		t.Fatal("decay-free weight changed")
	}
}

func TestFedAsyncMixing(t *testing.T) {
	f := FedAsync{Alpha: 0.5}
	global := []float64{0, 0}
	downloaded := []float64{0, 0}
	u := Update{Delta: compress.NewSparseDense([]float64{2, 4})}
	if !f.OnReceive(global, downloaded, u) {
		t.Fatal("FedAsync did not advance")
	}
	if math.Abs(global[0]-1) > 1e-12 || math.Abs(global[1]-2) > 1e-12 {
		t.Fatalf("mixed global %v", global)
	}
}

func TestFedBuffFlushesAtK(t *testing.T) {
	f := NewFedBuff(3, 1)
	global := []float64{0}
	for i := 0; i < 2; i++ {
		if f.OnReceive(global, nil, Update{Delta: compress.NewSparseDense([]float64{3})}) {
			t.Fatal("FedBuff advanced before buffer full")
		}
	}
	if global[0] != 0 {
		t.Fatal("FedBuff applied early")
	}
	if !f.OnReceive(global, nil, Update{Delta: compress.NewSparseDense([]float64{3})}) {
		t.Fatal("FedBuff did not flush at K")
	}
	if math.Abs(global[0]-3) > 1e-12 {
		t.Fatalf("FedBuff applied %v, want mean 3", global[0])
	}
	if f.buffered != 0 {
		t.Fatal("buffer not cleared")
	}
}

func TestSyncEngineLearns(t *testing.T) {
	f := newTestFederation(5, true, 6)
	e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 7), 8)
	initAcc, _ := f.Evaluate(e.Global)
	e.RunRounds(15)
	final := e.Hist.FinalAcc()
	if final < initAcc+0.3 {
		t.Fatalf("sync FedAvg did not learn: %v -> %v", initAcc, final)
	}
	if e.Now() <= 0 {
		t.Fatal("simulated time did not advance")
	}
	if e.TotalUplinkBytes() == 0 || e.Hist.Rows[len(e.Hist.Rows)-1].DownlinkBytes == 0 {
		t.Fatal("no bytes accounted")
	}
	if e.TotalUpdates() != 5*15 {
		t.Fatalf("updates = %d, want 75", e.TotalUpdates())
	}
}

func TestSyncEngineMaxWaitDropsSlowClients(t *testing.T) {
	f := newTestFederation(4, true, 9)
	// Give client 0 a hopeless link.
	f.Net.SetLink(0, netsim.Link{UpBps: 10, DownBps: 10, LatencyS: 5})
	e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 10), 11)
	e.MaxWait = 2.0
	e.RunRound()
	row := e.Hist.Rows[0]
	if row.Participants != 4 {
		t.Fatalf("participants %d", row.Participants)
	}
	if row.Received != 3 {
		t.Fatalf("received %d, want 3 (slow client dropped)", row.Received)
	}
	if e.ClientUpdates[0] != 0 {
		t.Fatal("slow client's update was accepted")
	}
	if math.Abs(e.Now()-2.0) > 1e-9 {
		t.Fatalf("round duration %v, want MaxWait", e.Now())
	}
}

func TestSyncEngineCompressionReducesBytes(t *testing.T) {
	seed := uint64(12)
	dense := newTestFederation(3, true, seed)
	sparse := newTestFederation(3, true, seed)
	for _, c := range sparse.Clients {
		c.Codec = compress.NewDGC(0.9, 0)
	}
	eDense := NewSyncEngine(dense, FedAvg{}, NewFixedRatePlanner(1, 1, 13), 14)
	eSparse := NewSyncEngine(sparse, FedAvg{}, NewFixedRatePlanner(1, 50, 13), 14)
	eDense.RunRounds(3)
	eSparse.RunRounds(3)
	if eSparse.TotalUplinkBytes() >= eDense.TotalUplinkBytes()/10 {
		t.Fatalf("compression ineffective: %d vs %d bytes",
			eSparse.TotalUplinkBytes(), eDense.TotalUplinkBytes())
	}
}

func TestFixedRatePlannerCount(t *testing.T) {
	f := newTestFederation(10, true, 15)
	e := NewSyncEngine(f, FedAvg{}, nil, 16)
	p := NewFixedRatePlanner(0.5, 1, 17)
	sel := p.Plan(0, e)
	if len(sel) != 5 {
		t.Fatalf("selected %d, want 5", len(sel))
	}
	seen := map[int]bool{}
	for _, s := range sel {
		if seen[s.Client] {
			t.Fatal("duplicate client selected")
		}
		seen[s.Client] = true
	}
}

func TestUnreliablePlannerModes(t *testing.T) {
	f := newTestFederation(4, true, 18)
	e := NewSyncEngine(f, FedAvg{}, nil, 19)
	unrel := map[int]bool{1: true}

	drop := &UnreliablePlanner{Unreliable: unrel, Mode: ModeDropout}
	for round := 0; round < 3; round++ {
		for _, p := range drop.Plan(round, e) {
			if p.Client == 1 {
				t.Fatal("dropout client planned")
			}
		}
	}

	loss := &UnreliablePlanner{Unreliable: unrel, Mode: ModeDataLoss, Period: 2}
	has := func(round int) bool {
		for _, p := range loss.Plan(round, e) {
			if p.Client == 1 {
				return true
			}
		}
		return false
	}
	if !has(0) || has(1) || !has(2) {
		t.Fatal("data-loss client not on every-other-round schedule")
	}
}

func TestAsyncEngineLearns(t *testing.T) {
	f := newTestFederation(5, true, 20)
	slowDevices(f)
	e := NewAsyncEngine(f, FedAsync{Alpha: 0.5, Decay: 0.5}, AlwaysUpload{})
	initAcc, _ := f.Evaluate(e.Global)
	e.Run(30)
	if e.TotalUpdates() == 0 {
		t.Fatal("no async updates received")
	}
	final := e.Hist.FinalAcc()
	if final < initAcc+0.3 {
		t.Fatalf("async FedAsync did not learn: %v -> %v", initAcc, final)
	}
	if e.MeanStaleness() < 0 {
		t.Fatal("negative staleness")
	}
}

func TestAsyncEngineFedBuff(t *testing.T) {
	f := newTestFederation(4, true, 21)
	slowDevices(f)
	e := NewAsyncEngine(f, NewFedBuff(2, 1), AlwaysUpload{})
	e.Run(20)
	if e.TotalUpdates() == 0 {
		t.Fatal("no updates")
	}
	// Version advances once per K=2 received updates (±1 for a partial
	// buffer at the horizon).
	if e.Version > e.TotalUpdates()/2+1 || e.Version == 0 {
		t.Fatalf("version %d inconsistent with %d updates at K=2", e.Version, e.TotalUpdates())
	}
}

func TestAsyncSlowClientsAreStale(t *testing.T) {
	f := newTestFederation(4, true, 22)
	slowDevices(f)
	// Make one client's device 5x slower.
	f.Clients[0].Device = f.Clients[0].Device.Scaled(0.2)
	e := NewAsyncEngine(f, FedAsync{Alpha: 0.5, Decay: 0.5}, AlwaysUpload{})
	e.Run(30)
	if e.ClientUpdates[0] >= e.ClientUpdates[1] {
		t.Fatalf("slow client updated as often as fast: %v", e.ClientUpdates)
	}
	if e.MeanStaleness() == 0 {
		t.Fatal("heterogeneous federation produced zero staleness")
	}
}

func TestEnginesDeterministic(t *testing.T) {
	run := func() float64 {
		f := newTestFederation(3, false, 23)
		e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 24), 25)
		e.RunRounds(5)
		return e.Hist.FinalAcc()
	}
	if run() != run() {
		t.Fatal("sync engine not deterministic")
	}
	runAsync := func() float64 {
		f := newTestFederation(3, false, 26)
		slowDevices(f)
		e := NewAsyncEngine(f, FedAsync{Alpha: 0.5}, AlwaysUpload{})
		e.Run(10)
		return e.Hist.FinalAcc()
	}
	if runAsync() != runAsync() {
		t.Fatal("async engine not deterministic")
	}
}

func TestHistoryQueries(t *testing.T) {
	var h History
	h.Add(RoundStats{Round: 1, Time: 1, TestAcc: math.NaN()})
	h.Add(RoundStats{Round: 2, Time: 2, TestAcc: 0.5, UplinkBytes: 100, Updates: 5})
	h.Add(RoundStats{Round: 3, Time: 3, TestAcc: 0.8, UplinkBytes: 200, Updates: 10})
	if h.FinalAcc() != 0.8 || h.BestAcc() != 0.8 {
		t.Fatal("final/best acc wrong")
	}
	if h.TotalUpdates() != 10 {
		t.Fatal("totals wrong")
	}
}

func TestDatalessClientContributesZero(t *testing.T) {
	f := newTestFederation(2, true, 27)
	empty := f.Clients[0].Data.Subset(nil)
	c := NewClient(9, empty, f.NewModel(), f.Clients[0].Cfg, f.Clients[0].Device, stats.NewRNG(1))
	global := f.NewModel().ParamVector()
	delta, _ := c.TrainRound(global, nil)
	if norm(delta) != 0 {
		t.Fatal("dataless client produced nonzero delta")
	}
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestHistoryWriteCSV(t *testing.T) {
	var h History
	h.Add(RoundStats{Round: 1, Time: 1.5, TestAcc: math.NaN(), TestLoss: math.NaN(), Participants: 5, Received: 4, UplinkBytes: 100, Updates: 4})
	h.Add(RoundStats{Round: 2, Time: 3, TestAcc: 0.5, TestLoss: 1.2, Participants: 5, Received: 5, UplinkBytes: 200, Updates: 9})
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "round,time,test_acc") {
		t.Fatalf("header missing: %s", out)
	}
	if !strings.Contains(out, "1,1.5,,,5,4,100,0,4") {
		t.Fatalf("NaN row malformed: %s", out)
	}
	if !strings.Contains(out, "2,3,0.5,1.2,5,5,200,0,9") {
		t.Fatalf("data row malformed: %s", out)
	}
}

func TestAggregatorNames(t *testing.T) {
	names := map[string]string{
		FedAvg{}.Name():          "fedavg",
		NewFedAdam(0.1).Name():   "fedadam",
		NewScaffold(1, 2).Name(): "scaffold",
		FedAsync{}.Name():        "fedasync",
		NewFedBuff(1, 1).Name():  "fedbuff",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
}

func TestFedBuffValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 accepted")
		}
	}()
	NewFedBuff(0, 1)
}

func TestAsyncEngineAccessors(t *testing.T) {
	f := newTestFederation(2, true, 91)
	slowDevices(f)
	e := NewAsyncEngine(f, FedAsync{Alpha: 0.5}, AlwaysUpload{})
	e.EvalInterval = 2
	e.Run(4)
	if e.Now() <= 0 {
		t.Fatal("Now did not advance")
	}
	if e.TotalUplinkBytes() == 0 {
		t.Fatal("no uplink bytes")
	}
	if e.MeanStaleness() < 0 {
		t.Fatal("negative staleness")
	}
}

func TestSyncEngineRoundAccessor(t *testing.T) {
	f := newTestFederation(2, true, 92)
	e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 1), 2)
	if e.Round() != 0 {
		t.Fatal("fresh engine round != 0")
	}
	e.RunRound()
	if e.Round() != 1 {
		t.Fatal("round not incremented")
	}
}

func TestStalenessWeightSemantics(t *testing.T) {
	if w := StalenessWeight(0); w != 1 {
		t.Fatalf("StalenessWeight(0) = %v, want exactly 1", w)
	}
	if w := StalenessWeight(-3); w != 1 {
		t.Fatalf("negative staleness must clamp to 1, got %v", w)
	}
	for s := 1; s < 64; s++ {
		want := 1 / math.Sqrt(1+float64(s))
		if got := StalenessWeight(s); got != want {
			t.Fatalf("StalenessWeight(%d) = %v, want %v", s, got, want)
		}
		if StalenessWeight(s) >= StalenessWeight(s-1) {
			t.Fatalf("StalenessWeight not strictly decreasing at %d", s)
		}
	}
}

func TestFedBuffStalenessWeighting(t *testing.T) {
	f := NewFedBuff(2, 1)
	global := []float64{0}
	// A fresh delta of 4 and a staleness-3 delta of 0: down-weighting the
	// stale contribution pulls the weighted mean (1*4+0.5*0)/1.5 above the
	// plain mean of 2, because the fresh delta dominates.
	f.OnReceive(global, nil, Update{Delta: compress.NewSparseDense([]float64{4})})
	f.OnReceive(global, nil, Update{Delta: compress.NewSparseDense([]float64{0}), Staleness: 3})
	w := StalenessWeight(3)
	want := (4 + w*0) / (1 + w)
	if math.Abs(global[0]-want) > 1e-12 {
		t.Fatalf("weighted FedBuff applied %v, want %v", global[0], want)
	}
	if want <= 2 {
		t.Fatalf("down-weighted stale zero-delta should land above the plain mean, got want=%v", want)
	}
}
