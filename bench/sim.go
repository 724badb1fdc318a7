package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"time"

	"adafl/internal/core"
	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/scenario"
	"adafl/internal/stats"
)

// fluctuatingScenario is examples/scenarios/fluctuating.json as of the
// commit that added the benchmark. The benchmark owns its inputs: an
// edit to the example must not move sim_tta.
//
//go:embed fluctuating.json
var fluctuatingScenario []byte

const (
	simClients   = 10
	simRounds    = 60
	simSeeds     = 20
	simAccTarget = 0.70
)

// simOut is one simulated federation (one sub-seed).
type simOut struct {
	setupS    float64   // federation built and first round done
	roundS    []float64 // wall seconds per simulated round
	ttaS      float64   // simulated seconds to simAccTarget, -1 if never
	ttaMB     float64   // simulated uplink MB at that point
	finalAcc  float64
	updates   int
	global    []float64
	meanRatio float64
}

// newSimEngine is the cmd/flsim wiring for
// `-method adafl -negotiate -scenario fluctuating.json -link lte`.
func newSimEngine(seed uint64, reg *obs.Registry) (*fl.SyncEngine, *core.SyncPlanner, error) {
	sc, err := scenario.Parse(bytes.NewReader(fluctuatingScenario))
	if err != nil {
		return nil, nil, err
	}
	fleet, err := scenario.NewFleet(sc, simClients)
	if err != nil {
		return nil, nil, err
	}
	const img = 16
	ds := dataset.SynthMNIST(1500, img, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionShards(train, simClients, 2, seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, img, img}, []int{32}, 10, stats.NewRNG(seed+4))
	}
	trainCfg := fl.TrainConfig{LocalSteps: 4, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	fed := fl.NewFederation(parts, test, netsim.UniformNetwork(simClients, netsim.LTELink, seed+3), newModel, trainCfg, seed+5)
	fleet.ConfigureFederation(fed)
	fleet.SetRoundWork(newModel().FLOPsPerSample(), trainCfg.LocalSteps*trainCfg.BatchSize)

	cfg := core.DefaultConfig()
	cfg.ScaleRatiosForModel(newModel().NumParams())
	cfg.AttachDGC(fed)
	sp := core.NewSyncPlanner(cfg)
	neg, err := core.NewNegotiator(core.DefaultNegotiation(), cfg.Compression)
	if err != nil {
		return nil, nil, err
	}
	sp.Negotiator, sp.NegotiationSeed, sp.Metrics = neg, seed+9, reg
	sp.BandwidthMult = func(_, round int) float64 {
		up, _ := fleet.LinkBandwidth(-1, round, 1, 1)
		return up
	}
	sp.Eligible, sp.ScoreMult = fleet.Available, fleet.ScoreMult

	e := fl.NewSyncEngine(fed, fl.FedAvg{}, &scenario.Planner{Fleet: fleet, Inner: sp}, seed+6)
	e.EvalEvery = 1 // time-to-accuracy at round resolution
	e.OnUpload = neg.RecordUpload
	e.Metrics = reg
	return e, sp, nil
}

func runSim(seed uint64, reg *obs.Registry) (*simOut, error) {
	start := time.Now()
	e, sp, err := newSimEngine(seed, reg)
	if err != nil {
		return nil, err
	}
	out := &simOut{}
	for r := 0; r < simRounds; r++ {
		t := time.Now()
		e.RunRound()
		now := time.Now()
		out.roundS = append(out.roundS, now.Sub(t).Seconds())
		if r == 0 {
			out.setupS = now.Sub(start).Seconds()
		}
	}
	var acc, costS, costMB []float64
	var prev fl.RoundStats
	for _, row := range e.Hist.Rows {
		acc = append(acc, row.TestAcc) // EvalEvery is 1: never NaN
		costS = append(costS, row.Time-prev.Time)
		costMB = append(costMB, float64(row.UplinkBytes-prev.UplinkBytes)/1e6)
		prev = row
	}
	out.ttaS, out.ttaMB = spentShort(simAccTarget, acc, costS), spentShort(simAccTarget, acc, costMB)
	out.finalAcc = e.Hist.FinalAcc()
	out.updates = e.TotalUpdates()
	out.global = e.Global
	out.meanRatio = sp.RatioStats.Mean()
	return out, nil
}

func simTTA(rc *runCtx) (*outcome, error) {
	root := rc.spans.start("workload", nil)
	defer root.finish()
	seeds := simSeeds
	if rc.quick {
		seeds = 1
	}
	o := newOutcome()
	var setups, rounds, tta, mb, acc, ratio []float64
	var globals []float64
	for i := 0; i < seeds; i++ {
		sp := rc.spans.start(fmt.Sprintf("session[%d]", i), root)
		s, err := runSim(subSeed(rc.seed, i), rc.reg)
		sp.finish()
		if err != nil {
			return nil, fmt.Errorf("sim_tta: %w", err)
		}
		o.attempted += int64(s.updates)
		setups = append(setups, s.setupS)
		rounds = append(rounds, s.roundS[1:]...)
		acc = append(acc, s.finalAcc)
		ratio = append(ratio, s.meanRatio)
		globals = append(globals, s.global...)
		// Ten classes: an accuracy near 0.1 means nothing was learnt.
		if !(s.finalAcc > 0.3) || s.updates == 0 || !(s.ttaS > 0) {
			o.failed++
			o.gate("session %d: final accuracy %.3f after %d updates, %.3g simulated s short of the target — the federation did not train",
				i, s.finalAcc, s.updates, s.ttaS)
		}
		tta = append(tta, s.ttaS)
		mb = append(mb, s.ttaMB)
	}
	o.set("setup_s", median(setups))
	o.set("round_s_p50", median(rounds))
	o.set("final_acc", mean(acc))
	o.set("sim_time_to_acc_s", mean(tta))
	o.set("sim_uplink_mb_to_acc", mean(mb))
	o.set("peak_rss_mb", peakRSSMB())
	o.checksum = checksumBits(globals)
	o.note("means over %d simulated federations; round_s_p50 is wall seconds per simulated round over %d rounds", seeds, len(rounds))
	if rc.traced {
		o.layer["core.mean_assigned_ratio"] = mean(ratio)
	}
	return o, nil
}
