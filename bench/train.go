package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/stats"
)

// trainSpec is one real-training workload: rpc.NewServer plus N
// rpc.RunClient goroutines over 127.0.0.1 TCP on the binary wire.
type trainSpec struct {
	name         string
	clients      int
	samples, img int
	cnn          bool // PaperCNN (431 080 params) instead of the 8 554-param ImageMLP
	k            int
	localSteps   int
	lr           float64
	// sessions is how many federations one run trains, each from its own
	// sub-seed; rounds is the budget of each at scale 1. Accuracy-derived
	// metrics are means over the sessions, timings are pooled.
	sessions     int
	rounds       int
	evalEvery    int // the budget is kept a multiple of it so the last round is evaluated
	deltaCkpt    bool
	negotiate    bool
	accTarget    float64 // 0: no rounds/bytes-to-accuracy metrics
	setupRepeats int     // extra one-round sessions, timed for setup_s only
}

// cnn_train fits one 16-round session into the reference run length, so
// its set-up is repeated in short sessions; mlp_proto's four sub-seeded
// sessions bring their own set-ups and average the seed-to-seed swing of
// the accuracy curve.
var cnnTrain = trainSpec{
	name: "cnn_train", clients: 8, samples: 2400, img: 28, cnn: true, k: 4,
	localSteps: 4, lr: 0.05, sessions: 1, rounds: 16, evalEvery: 8, setupRepeats: 2,
}

var mlpProto = trainSpec{
	name: "mlp_proto", clients: 16, samples: 4000, img: 16, k: 8,
	localSteps: 3, lr: 0.05, sessions: 8, rounds: 100, evalEvery: 10,
	deltaCkpt: true, negotiate: true, accTarget: 0.90,
}

// subSeed derives session i's seed.
func subSeed(seed uint64, i int) uint64 { return seed + 1000*uint64(i) }

// trainSession is what one server session leaves behind.
type trainSession struct {
	setupS     float64     // workload start → end of the first round
	roundEnd   []time.Time // OnRound timestamps
	res        *rpc.ServerResult
	clientSent int64 // Σ ClientResult.BytesSent
	uploads    int
	clientErrs int
	global     []float64 // server model after the last evaluated round
	// Traced sessions only:
	ckptBytes      []float64 // adafl_checkpoint_bytes after each round (deltaCkpt)
	mallocs        []uint64  // process-wide malloc count after the warm-up and after the last round
	goroutinesPeak int       // highest runtime.NumGoroutine seen, polled every millisecond
}

func (s trainSpec) newModel(seed uint64) func() *nn.Model {
	if s.cnn {
		return func() *nn.Model { return nn.NewPaperCNN(stats.NewRNG(seed + 4)) }
	}
	return func() *nn.Model {
		return nn.NewImageMLP([]int{1, s.img, s.img}, []int{32}, 10, stats.NewRNG(seed+4))
	}
}

// session runs one complete federation of the given length. Everything
// the program sees — dataset, partition, model init, batch order — is
// derived from seed.
func (s trainSpec) session(rc *runCtx, seed uint64, rounds, evalEvery int, parent *span) (*trainSession, error) {
	sp := rc.spans.start("session", parent)
	defer sp.finish()
	start := time.Now()
	setup := rc.spans.start("setup", sp)
	ds := dataset.SynthMNIST(s.samples, s.img, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionShards(train, s.clients, 2, seed+2)
	newModel := s.newModel(seed)

	cfg := core.DefaultConfig()
	cfg.K = s.k
	cfg.Compression.WarmupRounds = 2
	cfg.ScaleRatiosForModel(newModel().NumParams())

	out := &trainSession{}
	var serverModel *nn.Model
	scfg := rpc.ServerConfig{
		Addr: "127.0.0.1:0", NumClients: s.clients, Rounds: rounds, Cfg: cfg,
		NewModel: func() *nn.Model { serverModel = newModel(); return serverModel },
		Test:     test, EvalEvery: evalEvery,
		Shards: 2, Wire: rpc.WireBinary, Logf: quietLogf,
		Metrics: rc.reg, Events: rc.events,
	}
	if s.negotiate {
		scfg.Negotiation = core.DefaultNegotiation()
	}
	if s.deltaCkpt {
		dir, err := os.MkdirTemp(rc.tmp, s.name+"-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scfg.CheckpointDir, scfg.DeltaCheckpoints = dir, true
	}
	var roundSpan *span
	scfg.OnRound = func(rec rpc.RoundRecord) {
		now := time.Now()
		if rec.Round == 0 {
			out.setupS = now.Sub(start).Seconds()
		}
		out.roundEnd = append(out.roundEnd, now)
		if rc.traced {
			if s.deltaCkpt {
				out.ckptBytes = append(out.ckptBytes, rc.reg.Gauge("adafl_checkpoint_bytes").Value())
			}
			// ReadMemStats stops the world: twice a session, not every round.
			if rec.Round == warmupRounds-1 || rec.Round == rounds-1 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				out.mallocs = append(out.mallocs, ms.Mallocs)
			}
		}
		roundSpan.finishAt(now)
		if rec.Round+1 < rounds {
			roundSpan = rc.spans.startAt(fmt.Sprintf("round[%d]", rec.Round+1), sp, now)
		}
	}
	srv, err := rpc.NewServer(scfg)
	if err != nil {
		return nil, err
	}
	setup.finish()

	connect := rc.spans.start("connect", sp)
	var wg sync.WaitGroup
	results := make([]*rpc.ClientResult, s.clients)
	errs := make([]error, s.clients)
	for i := 0; i < s.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			csp := rc.spans.start(fmt.Sprintf("client[%d].run", i), sp)
			defer csp.finish()
			results[i], errs[i] = rpc.RunClient(rpc.ClientConfig{
				Addr: srv.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				LocalSteps: s.localSteps, BatchSize: 16, LR: s.lr, Momentum: 0.9,
				Utility: cfg.Utility, UpBps: 2.5e6, DownBps: 5e6,
				DGCMomentum: cfg.DGCMomentum, DGCClip: cfg.DGCClip, DGCMsgClip: cfg.DGCMsgClip,
				Seed: seed + 100 + uint64(i), Wire: rpc.WireBinary, Logf: quietLogf,
				Metrics: rc.reg,
			})
		}(i)
	}
	connect.finish()
	stopPeak := func() {}
	if rc.traced {
		stopPeak = pollGoroutines(&out.goroutinesPeak)
	}
	roundSpan = rc.spans.start("round[0]", sp)
	res, err := srv.Run()
	stopPeak()
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("%s: server: %w", s.name, err)
	}
	out.res = res
	for i, r := range results {
		if errs[i] != nil {
			out.clientErrs++
		}
		if r != nil {
			out.clientSent += r.BytesSent
			out.uploads += r.Uploads
		}
	}
	out.global = serverModel.ParamVector()
	return out, nil
}

func (s trainSpec) run(rc *runCtx) (*outcome, error) {
	// At least three rounds, so one round is left after the warm-up; a
	// budget shorter than the evaluation cadence evaluates its last round.
	rounds, evalEvery := rc.budget(s.rounds, 1), s.evalEvery
	if rounds < warmupRounds+1 {
		rounds = warmupRounds + 1
	}
	if rounds < evalEvery {
		evalEvery = rounds
	}
	rounds -= rounds % evalEvery
	sessions, repeats := s.sessions, s.setupRepeats
	if rc.quick {
		sessions, repeats = 1, 0
	}
	root := rc.spans.start("workload", nil)
	defer root.finish()

	var setups []float64
	for i := 0; i < repeats; i++ {
		ts, err := s.session(rc.untraced(), rc.seed, 1, evalEvery, root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ts.setupS)
	}
	o := newOutcome()
	var durs, finalAcc, toAccRounds, toAccMB, ckptBytes, allocsPerRound []float64
	var bytesUp, accepted int64
	goroutinesPeak := 0
	var globals []float64
	for i := 0; i < sessions; i++ {
		ts, err := s.session(rc, subSeed(rc.seed, i), rounds, evalEvery, root)
		if err != nil {
			return nil, err
		}
		res := ts.res
		setups = append(setups, ts.setupS)
		durs = append(durs, roundDurations(ts.roundEnd)...)
		finalAcc = append(finalAcc, res.FinalAcc)
		ckptBytes = append(ckptBytes, ts.ckptBytes...)
		if len(ts.mallocs) == 2 {
			allocsPerRound = append(allocsPerRound, float64(ts.mallocs[1]-ts.mallocs[0])/float64(rounds-warmupRounds))
		}
		if ts.goroutinesPeak > goroutinesPeak {
			goroutinesPeak = ts.goroutinesPeak
		}
		globals = append(globals, ts.global...)
		bytesUp += res.BytesReceived
		if s.accTarget > 0 {
			r, mb := toAccuracy(res.Rounds, s.accTarget)
			toAccRounds, toAccMB = append(toAccRounds, r), append(toAccMB, mb)
		}

		var got, want, quarantined int64
		for _, r := range res.Rounds {
			got += int64(r.Received)
			want += int64(r.Selected)
			quarantined += int64(r.Quarantined)
		}
		accepted += got
		// fail_share: everything that kept an attempted update out of the
		// global model, plus rounds short of the budget.
		o.attempted += want
		o.failed += int64(res.Evictions) + quarantined + (want - got) +
			int64(rounds-len(res.Rounds)) + int64(ts.clientErrs)
		if len(res.Rounds) != rounds || res.EndedEarly {
			o.gate("session %d: completed %d of %d rounds", i, len(res.Rounds), rounds)
		}
		if res.Evictions != 0 || len(res.Quarantines) != 0 {
			o.gate("session %d: %d evictions, %d quarantines (want none)", i, res.Evictions, len(res.Quarantines))
		}
		if ts.clientErrs != 0 {
			o.gate("session %d: %d clients returned an error", i, ts.clientErrs)
		}
		if res.BytesReceived != ts.clientSent {
			o.gate("session %d: byte accounting: server received %d, clients sent %d", i, res.BytesReceived, ts.clientSent)
		}
		if int64(ts.uploads) != got {
			o.gate("session %d: clients uploaded %d updates, server folded %d", i, ts.uploads, got)
		}
	}
	o.set("setup_s", median(setups))
	o.set("round_s_p50", median(durs))
	o.set("uplink_bytes_per_update", float64(bytesUp)/float64(accepted))
	o.set("peak_rss_mb", peakRSSMB())
	o.note("%d session(s) of %d rounds; round_s_p50 over %d rounds (first %d of each session left out); setup_s median of %d sessions",
		sessions, rounds, len(durs), warmupRounds, len(setups))
	if s.accTarget > 0 {
		o.set("final_acc", mean(finalAcc))
		o.set("rounds_per_s", float64(len(durs))/sum(durs))
		o.set("rounds_to_acc", mean(toAccRounds))
		o.set("uplink_mb_to_acc", mean(toAccMB))
	} else {
		o.note("test accuracy after round %d: %.3f (not a metric: too few rounds for the CNN's accuracy to be more than noise)", rounds, mean(finalAcc))
	}
	o.checksum = checksumBits(globals)

	if rc.traced {
		s.layerMetrics(rc, o, durs, ckptBytes)
		o.layer["rpc.allocs_per_round"] = mean(allocsPerRound)
		o.layer["rpc.goroutines_peak"] = float64(goroutinesPeak)
	}
	return o, nil
}

// pollGoroutines tracks the process's goroutine count until the returned
// stop function is called; the per-round goroutines the server spawns
// live for less than a round, so only polling sees them.
func pollGoroutines(peak *int) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > *peak {
					*peak = n
				}
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}

// toAccuracy is spentShort over a session's evaluated rounds, in rounds
// and in uplink MB.
func toAccuracy(rounds []rpc.RoundRecord, target float64) (float64, float64) {
	var acc, costRounds, costMB []float64
	var stretchRounds, stretchMB float64
	for _, r := range rounds {
		stretchRounds++
		stretchMB += float64(r.Bytes) / 1e6
		if math.IsNaN(r.TestAcc) {
			continue
		}
		acc = append(acc, r.TestAcc)
		costRounds, costMB = append(costRounds, stretchRounds), append(costMB, stretchMB)
		stretchRounds, stretchMB = 0, 0
	}
	return spentShort(target, acc, costRounds), spentShort(target, acc, costMB)
}

// layerMetrics reads the registry the traced sessions filled.
func (s trainSpec) layerMetrics(rc *runCtx, o *outcome, durs, ckptBytes []float64) {
	hist := func(name string) *obs.Histogram { return rc.reg.Histogram(name, obs.LatencyBuckets) }
	roundSum := hist("adafl_round_seconds").Sum()
	score := hist(`adafl_phase_seconds{phase="score"}`).Sum()
	update := hist(`adafl_phase_seconds{phase="update"}`).Sum()
	ckpt := hist("adafl_checkpoint_seconds").Sum()
	o.layer["rpc.round_s_sum"] = roundSum
	o.layer["rpc.phase_score_s"] = score
	o.layer["rpc.phase_update_s"] = update
	o.layer["rpc.client_train_s"] = hist("adafl_client_train_seconds").Sum() / float64(s.clients)
	o.layer["rpc.checkpoint_s"] = ckpt
	// The checkpoint is written after adafl_round_seconds is observed, so
	// a round's wall is the sum of the two.
	if total := roundSum + ckpt; total > 0 {
		o.layer["rpc.unattributed_share"] = 1 - (score+update+ckpt)/total
	}
	o.layer["rpc.round_tail_s"] = tail(durs)
	o.layer["rpc.evictions"] = float64(rc.reg.Counter("adafl_evictions_total").Value())
	o.layer["core.mean_assigned_ratio"] = histMean(rc.reg.Histogram("adafl_compression_ratio", obs.RatioBuckets))
	shardLayer(rc, o)
	if len(ckptBytes) > 0 {
		o.layer["checkpoint.delta_bytes_per_epoch"] = mean(ckptBytes)
	}
}

// shardLayer reads the two-shard tree's instruments.
func shardLayer(rc *runCtx, o *outcome) {
	o.layer["shard.fold_s"] = rc.reg.Histogram(`adafl_shard_fold_seconds{shard="0"}`, nil).Sum() +
		rc.reg.Histogram(`adafl_shard_fold_seconds{shard="1"}`, nil).Sum()
	o.layer["shard.merge_s"] = rc.reg.Histogram("adafl_shard_merge_seconds", obs.LatencyBuckets).Sum()
	o.layer["shard.backpressure_total"] = float64(rc.reg.Counter("adafl_shard_backpressure_total").Value())
}

func histMean(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count())
}
