package main

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/rpc"
	"adafl/internal/scenario"
	"adafl/internal/shard"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Layer probes: timed loops around public functions of one layer each,
// run only in the traced pass, after the workload. Sizes are the ones the
// workloads hit: 431 080 parameters (PaperCNN), dim 20 000 / nnz 1 000
// (the ingest stream), the ImageMLP of mlp_proto.

const cnnDim = 431080

// prober times operations and records each probe as a span.
type prober struct {
	rc  *runCtx
	out map[string]float64
	err error // first failure; later probes are skipped
}

func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// seconds returns the seconds one call of f takes: the median over five
// batches, each long enough (≥ 10 ms) for the clock not to matter. In
// -quick mode it is one untimed-warm-up-free call.
func (p *prober) seconds(name string, f func()) float64 {
	if p.err != nil {
		return 1 // keeps the caller's arithmetic finite; the run fails anyway
	}
	sp := p.rc.spans.start("probe."+name, nil)
	defer sp.finish()
	if p.rc.quick {
		start := time.Now()
		f()
		return time.Since(start).Seconds()
	}
	f() // warm scratch buffers and caches
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= 10*time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = time.Since(start).Seconds() / float64(n)
	}
	return median(per)
}

// allocs returns the heap allocations one call of f makes.
func allocs(f func(), n int) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func randVec(n int, seed uint64, scale float64) []float64 {
	r := stats.NewRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormScaled(0, scale)
	}
	return v
}

func runProbes(rc *runCtx) (map[string]float64, error) {
	p := &prober{rc: rc, out: map[string]float64{}}
	p.tensor()
	p.nn()
	p.compress()
	p.core()
	p.fl()
	p.wire()
	p.shard()
	p.checkpoint()
	p.obs()
	return p.out, p.err
}

func (p *prober) tensor() {
	// PaperCNN conv2 per sample: W (50 × 20·5·5) times im2col (500 × 8·8).
	a, b, c := tensor.New(50, 500), tensor.New(500, 64), tensor.New(50, 64)
	r := stats.NewRNG(p.rc.seed)
	a.RandNorm(r, 1)
	b.RandNorm(r, 1)
	const flop = 2 * 50 * 500 * 64
	workers := tensor.MatMulWorkers()
	tensor.SetMatMulWorkers(1)
	p.out["tensor.gemm_gflops"] = flop / p.seconds("tensor.gemm_gflops", func() { tensor.MatMulInto(c, a, b) }) / 1e9
	tensor.SetMatMulWorkers(runtime.NumCPU())
	p.out["tensor.gemm_par_gflops"] = flop / p.seconds("tensor.gemm_par_gflops", func() { tensor.MatMulInto(c, a, b) }) / 1e9
	tensor.SetMatMulWorkers(workers)

	x, y := randVec(cnnDim, p.rc.seed, 1), make([]float64, cnnDim)
	// Axpy reads x and y and writes y: 24 bytes per element.
	p.out["tensor.axpy_gbs_431k"] = 24 * cnnDim / p.seconds("tensor.axpy_gbs_431k", func() { tensor.Axpy(1e-9, x, y) }) / 1e9
}

func (p *prober) nn() {
	const batch = 16
	cnn := nn.NewPaperCNN(stats.NewRNG(p.rc.seed + 4))
	ds := dataset.SynthMNIST(batch, 28, p.rc.seed)
	x, labels := ds.X, ds.Labels
	opt := nn.NewSGD(0.05, 0.9, 0)
	step := func() {
		cnn.ZeroGrads()
		cnn.TrainBatch(x, labels)
		opt.Step(cnn)
	}
	p.out["nn.cnn_train_batch_ms"] = 1e3 * p.seconds("nn.cnn_train_batch_ms", step)
	p.out["nn.cnn_train_allocs_per_batch"] = allocs(step, 3)
	p.out["nn.cnn_forward_ms_per_sample"] = 1e3 / batch * p.seconds("nn.cnn_forward_ms_per_sample", func() { cnn.Forward(x, false) })
	p.out["nn.param_copy_ms_431k"] = 1e3 * p.seconds("nn.param_copy_ms_431k", func() { cnn.SetParamVector(cnn.ParamVector()) })

	mlp := mlpProto.newModel(p.rc.seed)()
	mds := dataset.SynthMNIST(batch, mlpProto.img, p.rc.seed)
	mopt := nn.NewSGD(0.05, 0.9, 0)
	p.out["nn.mlp_train_batch_us"] = 1e6 * p.seconds("nn.mlp_train_batch_us", func() {
		mlp.ZeroGrads()
		mlp.TrainBatch(mds.X, mds.Labels)
		mopt.Step(mlp)
	})

	const synth = 256
	p.out["dataset.synth_samples_per_s"] = synth / p.seconds("dataset.synth_samples_per_s", func() { dataset.SynthMNIST(synth, 28, p.rc.seed) })
}

// ingestUpdate is one update of the ingest stream.
func ingestUpdate(seed uint64, id int) *compress.Sparse {
	u := &compress.Sparse{}
	rpc.FleetUpdate(u, seed, 0, id, ingestDim, ingestNnz)
	return u
}

func (p *prober) compress() {
	grad := randVec(cnnDim, p.rc.seed+1, 0.01)
	cfg := core.DefaultConfig()
	dgc := &compress.DGC{Momentum: cfg.DGCMomentum, ClipNorm: cfg.DGCClip, MsgClipFactor: cfg.DGCMsgClip}
	encode := func(ratio float64) func() {
		return func() {
			dgc.Encode(grad, ratio)
			dgc.Commit()
		}
	}
	p.out["compress.dgc_encode_ms_431k_r210"] = 1e3 * p.seconds("compress.dgc_encode_ms_431k_r210", encode(210))
	p.out["compress.dgc_encode_ms_431k_r4"] = 1e3 * p.seconds("compress.dgc_encode_ms_431k_r4", encode(4))
	k := compress.KForRatio(cnnDim, 210)
	p.out["compress.topk_select_ms_431k"] = 1e3 * p.seconds("compress.topk_select_ms_431k", func() { compress.SelectTopK(grad, k) })
	dada := compress.NewDAdaQuant(15, 63, 8, stats.NewRNG(p.rc.seed^0xdada))
	p.out["compress.dadaquant_encode_ms_431k"] = 1e3 * p.seconds("compress.dadaquant_encode_ms_431k", func() {
		dada.Encode(grad, 4)
		dada.Commit()
	})
	qsgd := compress.NewQSGD(15, stats.NewRNG(p.rc.seed^0x95bd))
	p.out["compress.qsgd_encode_ms_431k"] = 1e3 * p.seconds("compress.qsgd_encode_ms_431k", func() { qsgd.Encode(grad, 1) })

	u := ingestUpdate(p.rc.seed, 0)
	dst := make([]float64, ingestDim)
	p.out["compress.sparse_addto_ns_per_nnz"] = 1e9 / ingestNnz * p.seconds("compress.sparse_addto_ns_per_nnz", func() { u.AddTo(dst, 0.5) })
	frame := u.AppendBinary(nil)
	p.out["compress.sparse_wire_encode_ns_per_nnz"] = 1e9 / ingestNnz * p.seconds("compress.sparse_wire_encode_ns_per_nnz", func() { frame = u.AppendBinary(frame[:0]) })
	scratch := &compress.Sparse{}
	p.out["compress.sparse_wire_decode_ns_per_nnz"] = 1e9 / ingestNnz * p.seconds("compress.sparse_wire_decode_ns_per_nnz", func() {
		p.check(scratch.DecodeBinaryInto(frame))
	})
	p.out["rpc.fleet_gen_ns_per_update"] = 1e9 * p.seconds("rpc.fleet_gen_ns_per_update", func() { rpc.FleetUpdate(scratch, p.rc.seed, 1, 7, ingestDim, ingestNnz) })
}

// plan is Algorithm 1 over n reported scores plus the rank-based ratio
// ladder — what every round loop runs between the score and the update
// phase.
func plan(cfg core.Config, scores []float64, round int) map[int]float64 {
	sel := core.SelectClients(scores, len(scores)/2, cfg.Tau)
	out := make(map[int]float64, len(sel))
	for rank, sc := range sel {
		out[sc.Client] = cfg.Compression.RatioForRank(rank, len(sel), round)
	}
	return out
}

func (p *prober) core() {
	cfg := core.DefaultConfig()
	delta, gdelta := randVec(cnnDim, p.rc.seed+2, 0.01), randVec(cnnDim, p.rc.seed+3, 0.01)
	p.out["core.utility_score_ms_431k"] = 1e3 * p.seconds("core.utility_score_ms_431k", func() { cfg.Utility.Score(2.5e6, 5e6, delta, gdelta) })

	r := stats.NewRNG(p.rc.seed + 5)
	scores := make([]float64, 1000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	p.out["core.plan_us_n16"] = 1e6 * p.seconds("core.plan_us_n16", func() { plan(cfg, scores[:16], 10) })
	p.out["core.plan_us_n1000"] = 1e6 * p.seconds("core.plan_us_n1000", func() { plan(cfg, scores, 10) })

	neg, err := core.NewNegotiator(core.DefaultNegotiation(), cfg.Compression)
	if err != nil {
		p.check(err)
		return
	}
	planned := plan(cfg, scores, 10)
	round := 10
	p.out["core.negotiate_us_n1000"] = 1e6 * p.seconds("core.negotiate_us_n1000", func() {
		neg.Assign(round, planned, nil)
		round++
	})

	sc, err := scenario.Parse(bytes.NewReader(fluctuatingScenario))
	if err != nil {
		p.check(err)
		return
	}
	fleet, err := scenario.NewFleet(sc, 1000)
	if err != nil {
		p.check(err)
		return
	}
	fround := 0
	p.out["scenario.begin_round_us_n1000"] = 1e6 * p.seconds("scenario.begin_round_us_n1000", func() {
		fleet.BeginRound(fround)
		fround++
	})
}

func (p *prober) fl() {
	e, _, err := newSimEngine(p.rc.seed, nil)
	if err != nil {
		p.check(err)
		return
	}
	e.RunRounds(3) // past the protocol's dense warm-up
	p.out["fl.sync_round_ms"] = 1e3 * p.seconds("fl.sync_round_ms", e.RunRound)
	c := e.Fed.Clients[0]
	p.out["fl.client_train_round_ms"] = 1e3 * p.seconds("fl.client_train_round_ms", func() {
		delta, _ := c.TrainRound(e.Global, nil)
		c.EncodeDelta(delta, 10)
	})

	global := make([]float64, cnnDim)
	updates := make([]fl.Update, 4)
	for i := range updates {
		updates[i] = fl.Update{Client: i, Weight: 0.25,
			Delta: compress.SelectTopK(randVec(cnnDim, p.rc.seed+uint64(i), 0.01), compress.KForRatio(cnnDim, 4))}
	}
	p.out["fl.fedavg_apply_ms_431k"] = 1e3 * p.seconds("fl.fedavg_apply_ms_431k", func() { fl.FedAvg{}.Apply(global, updates) })
}

// memConn is a net.Conn over memory: reads replay one frame forever,
// writes are discarded. Deadlines are accepted and ignored.
type memConn struct {
	frame []byte
	off   int
	net.Conn
}

func (c *memConn) Read(b []byte) (int, error) {
	if len(c.frame) == 0 {
		return 0, io.EOF
	}
	if c.off == len(c.frame) {
		c.off = 0
	}
	n := copy(b, c.frame[c.off:])
	c.off += n
	return n, nil
}
func (c *memConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// captureConn keeps what is written to it.
type captureConn struct {
	memConn
	buf []byte
}

func (c *captureConn) Write(b []byte) (int, error) {
	c.buf = append(c.buf, b...)
	return len(b), nil
}

// wireFrame renders e as one binary wire frame.
func wireFrame(e *rpc.Envelope) ([]byte, error) {
	cc := &captureConn{}
	err := rpc.NewBinaryConn(cc, nil).Send(e)
	return cc.buf, err
}

func (p *prober) wire() {
	update := &rpc.Envelope{Type: rpc.MsgUpdate, ClientID: 3, Round: 5, Update: ingestUpdate(p.rc.seed, 3)}
	model := &rpc.Envelope{Type: rpc.MsgModel, Round: 5,
		Params: randVec(cnnDim, p.rc.seed+6, 0.1), GlobalDelta: randVec(cnnDim, p.rc.seed+7, 0.01)}
	updateFrame, err := wireFrame(update)
	p.check(err)
	modelFrame, err := wireFrame(model)
	p.check(err)
	var env rpc.Envelope

	send := rpc.NewBinaryConn(&memConn{}, nil)
	recv := rpc.NewBinaryConn(&memConn{frame: updateFrame}, nil)
	sendUpdate := func() { p.check(send.Send(update)) }
	recvUpdate := func() { p.check(recv.RecvInto(&env)) }
	p.out["rpc.wire_send_update_ns"] = 1e9 * p.seconds("rpc.wire_send_update_ns", sendUpdate)
	p.out["rpc.wire_recv_update_ns"] = 1e9 * p.seconds("rpc.wire_recv_update_ns", recvUpdate)
	p.out["rpc.wire_allocs_per_update"] = allocs(func() { sendUpdate(); recvUpdate() }, 200)

	recvModel := rpc.NewBinaryConn(&memConn{frame: modelFrame}, nil)
	p.out["rpc.wire_send_model_ms_431k"] = 1e3 * p.seconds("rpc.wire_send_model_ms_431k", func() { p.check(send.Send(model)) })
	p.out["rpc.wire_recv_model_ms_431k"] = 1e3 * p.seconds("rpc.wire_recv_model_ms_431k", func() { p.check(recvModel.RecvInto(&env)) })
}

func (p *prober) shard() {
	updates := make([]*compress.Sparse, ingestClients)
	for i := range updates {
		updates[i] = ingestUpdate(p.rc.seed, i)
	}
	items := make([]shard.Item, len(updates))
	p.out["shard.screen_us_per_update"] = 1e6 / ingestClients * p.seconds("shard.screen_us_per_update", func() {
		for i, u := range updates {
			items[i] = shard.Item{Client: i, Upd: u}
		}
		shard.Screen(0, ingestDim, 3, items, nil)
	})
	part, other := shard.NewPartial(ingestDim), shard.NewPartial(ingestDim)
	one := shard.Update{Client: 0, Weight: 1.0 / ingestClients, Delta: updates[0]}
	p.out["shard.fold_ns_per_nnz"] = 1e9 / ingestNnz * p.seconds("shard.fold_ns_per_nnz", func() { part.Fold(one, false) })
	other.Fold(one, false)
	p.out["shard.merge_us_dim20k"] = 1e6 * p.seconds("shard.merge_us_dim20k", func() { part.Merge(other) })

	tree := shard.NewTree(shard.Config{Shards: 2, Dim: ingestDim})
	defer tree.Close()
	p.out["shard.tree_ingest_updates_per_s"] = ingestClients / p.seconds("shard.tree_ingest_updates_per_s", func() {
		for i, u := range updates {
			tree.Ingest(0, shard.Update{Client: i, Weight: 1.0 / ingestClients, Delta: u})
		}
		tree.Finish()
	})
}

// snapshot431k is a session snapshot's bulk: two parameter-sized vectors.
type snapshot431k struct {
	Global, GlobalDelta []float64
}

func (p *prober) checkpoint() {
	snap := &snapshot431k{Global: randVec(cnnDim, p.rc.seed+8, 0.1), GlobalDelta: randVec(cnnDim, p.rc.seed+9, 0.01)}
	full := filepath.Join(p.rc.tmp, "probe-full.ckpt")
	p.out["checkpoint.save_full_ms_431k"] = 1e3 * p.seconds("checkpoint.save_full_ms_431k", func() { p.check(checkpoint.Save(full, snap)) })

	dir := filepath.Join(p.rc.tmp, "probe-delta")
	w, err := checkpoint.NewDeltaWriter(dir, checkpoint.DeltaOptions{})
	if err != nil {
		p.check(err)
		return
	}
	// Each epoch moves 1 % of the parameters, as a round at a ~100x
	// ratio does; unchanged chunks become references.
	epoch := 0
	p.out["checkpoint.save_delta_ms_431k"] = 1e3 * p.seconds("checkpoint.save_delta_ms_431k", func() {
		epoch++
		for i := epoch % 100; i < cnnDim; i += 100 {
			snap.Global[i] += 1e-3
		}
		_, _, err := w.Write([]checkpoint.Section{
			{Name: "global", Data: checkpoint.AppendF64s(nil, snap.Global)},
			{Name: "gdelta", Data: checkpoint.AppendF64s(nil, snap.GlobalDelta)},
		})
		p.check(err)
	})
	p.out["checkpoint.load_delta_ms_431k"] = 1e3 * p.seconds("checkpoint.load_delta_ms_431k", func() {
		_, _, err := checkpoint.NewDeltaReader(dir, 0).ReadLatest()
		p.check(err)
	})
}

func (p *prober) obs() {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_probe_total")
	h := reg.Histogram("bench_probe_seconds", obs.LatencyBuckets)
	p.out["obs.counter_inc_ns"] = 1e9 * p.seconds("obs.counter_inc_ns", c.Inc)
	p.out["obs.histogram_observe_ns"] = 1e9 * p.seconds("obs.histogram_observe_ns", func() { h.Observe(0.012) })
	log, err := obs.OpenEventLog(filepath.Join(p.rc.tmp, "probe-events.jsonl"))
	if err != nil {
		p.check(err)
		return
	}
	defer log.Close()
	p.out["obs.emit_event_us"] = 1e6 * p.seconds("obs.emit_event_us", func() {
		log.Emit(obs.Event{Type: "update", Round: 7, Client: 3, Bytes: fleetFrameBytes})
	})
}
