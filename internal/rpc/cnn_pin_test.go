package rpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// TestPaperCNNSessionBitsPinned pins the paper's CNN (431 080 parameters)
// through a whole wire session: four clients, six rounds, two of them
// warm-up (an empty ĝ, every client at ratio 1) and four after it, whose
// ĝ after the first — the union of a few top-k supports — leaves out
// more than half the coordinates and travels as pairs. The SHA-256 of the final global was taken when the client
// widened the broadcast's params to f64 and held ĝ as a dense f64 run,
// and when the conv layers lowered one tap per call and cleared every
// product before it: any change to the client's arithmetic, to what the
// wire carries or to the kernels under the CNN moves it.
func TestPaperCNNSessionBitsPinned(t *testing.T) {
	const want = "a97aac4b2b0b9640d89cf13237e283c28bb851a0d13af0b215b02a15fc521946"
	const clients, rounds = 4, 6
	ds := dataset.SynthMNIST(clients*64+64, 28, 91)
	train, test := ds.Split(0.8, 92)
	parts := dataset.PartitionIID(train, clients, 93)
	var serverModel *nn.Model
	newModel := func() *nn.Model { return nn.NewPaperCNN(stats.NewRNG(94)) }
	cfg := core.DefaultConfig()
	cfg.Compression.WarmupRounds = 2
	cfg.ScaleRatiosForModel(newModel().NumParams())
	cfg.K = clients - 1
	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: clients, Rounds: rounds, Cfg: cfg,
		NewModel: func() *nn.Model { serverModel = newModel(); return serverModel },
		Test:     test, EvalEvery: rounds, Logf: quiet, StragglerTimeout: 30 * time.Second,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, clients)
	for i := range cfgs {
		cfgs[i] = ClientConfig{
			Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
			LocalSteps: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9,
			Utility: cfg.Utility, UpBps: 1e6, DownBps: 1e6,
			DGCMomentum: cfg.DGCMomentum, DGCClip: cfg.DGCClip, DGCMsgClip: cfg.DGCMsgClip,
			Seed: 95 + uint64(i), Logf: quiet,
		}
	}
	clientsDone := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		clientsDone <- errs
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, cerr := range <-clientsDone {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}
	if len(res.Rounds) != rounds || res.Evictions != 0 {
		t.Fatalf("%d/%d rounds, %d evictions", len(res.Rounds), rounds, res.Evictions)
	}
	// Every broadcast carries the f32 params; past the warm-up a dense ĝ
	// would add 8 B per parameter, and the sparse rounds carry less.
	dim := int64(newModel().NumParams())
	down := reg.Counter(`adafl_bytes_total{dir="down"}`).Value()
	if dense := int64(clients) * (rounds*(4*dim+32) + (rounds-2)*8*dim); down >= dense {
		t.Errorf("%d bytes sent down, no fewer than with a dense ĝ every round (%d)", down, dense)
	}
	t.Logf("%d bytes sent down over %d rounds to %d clients", down, rounds, clients)
	h := sha256.New()
	for _, v := range serverModel.ParamVector() {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("final global digest %s, want %s", got, want)
	}
}
